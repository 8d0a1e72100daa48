"""The shard data plane: binary payload codec, SPSC shared-memory
ring, and the framed wire path over both transports.

The contract under test: every payload the shard protocol ships
round-trips bitwise through the binary codec; ring references resolve
to exactly the bytes published (in publication order, or a typed
protocol error); and *every* failure on the send path — pipe error,
exported-buffer ``BufferError``, ring-full fallback — releases the
pooled wire buffer and leaks no shared-memory segment.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
from unittest import mock
from zlib import crc32

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.transport import HEADER_STRUCT
from repro.serve.opcache import OpPointCache
from repro.serve.shm import (
    DEFAULT_RING_BYTES,
    FRAME_KINDS,
    NotShardSafe,
    ShardProtocolError,
    ShmRing,
    SHM_THRESHOLD,
    decode_payload,
    encode_payload_into,
    recv_frame,
    resolve_transport,
    send_frame,
    shm_available,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no shared memory on this host"
)


def _encoded(obj) -> bytes:
    buf = bytearray()
    encode_payload_into(buf, obj)
    return bytes(buf)


def _roundtrip(obj):
    return decode_payload(_encoded(obj))


class TestBinaryCodec:
    def test_scalar_vocabulary_roundtrips(self):
        for obj in (
            None, True, False, 0, -1, 2**63 - 1, -(2**63), 2**80, -(2**90),
            0.0, -1.5, 1e300, "", "utf-8 ✈ text", b"", b"\x00\xffraw",
        ):
            got = _roundtrip(obj)
            assert got == obj and type(got) is type(obj)

    def test_nested_containers_roundtrip(self):
        obj = {
            "specs": [{"name": "s0", "points": [1.0, 2.5], "n": 3}],
            "flags": [True, False, None],
            "blob": b"\x01\x02",
            "empty": {}, "empty_list": [],
        }
        assert _roundtrip(obj) == obj

    def test_tuples_decode_as_lists(self):
        assert _roundtrip((1, "a", (2.5,))) == [1, "a", [2.5]]

    def test_float_list_takes_array_fast_path_bitwise(self):
        vals = [0.1, -0.0, 1e-309, float("inf"), -2.5]
        buf = bytearray()
        encode_payload_into(buf, vals)
        assert buf[0] == 0x0A  # _T_F8ARRAY, not a generic list
        # raw little-endian float64s follow the u32 count
        assert bytes(buf[5:]) == struct.pack(f"<{len(vals)}d", *vals)
        got = decode_payload(buf)
        assert struct.pack(f"<{len(vals)}d", *got) == struct.pack(
            f"<{len(vals)}d", *vals
        )

    def test_mixed_list_stays_generic(self):
        buf = bytearray()
        encode_payload_into(buf, [1.0, 2])  # int member defeats the fast path
        assert buf[0] == 0x08  # _T_LIST
        assert decode_payload(buf) == [1.0, 2]

    def test_non_str_dict_key_is_not_shard_safe(self):
        with pytest.raises(NotShardSafe, match="str keys only"):
            _roundtrip({1: "x"})

    def test_foreign_type_is_not_shard_safe(self):
        with pytest.raises(NotShardSafe, match="not shard-serializable"):
            _roundtrip({"k": {1, 2}})

    def test_unknown_tag_is_protocol_error(self):
        with pytest.raises(ShardProtocolError, match="unknown payload tag"):
            decode_payload(b"\xfe")

    def test_truncation_is_protocol_error(self):
        buf = bytearray()
        encode_payload_into(buf, {"k": [1.0, 2.0, 3.0]})
        with pytest.raises(ShardProtocolError, match="truncated"):
            decode_payload(bytes(buf[:-4]))

    def test_trailing_bytes_are_protocol_error(self):
        buf = bytearray()
        encode_payload_into(buf, 7)
        with pytest.raises(ShardProtocolError, match="trailing"):
            decode_payload(bytes(buf) + b"\x00")


class TestDecoderRefusesWhatItDidNotWrite:
    """``decode_payload`` reads bytes another process wrote.  Whatever
    they are, the answer is a value or a ``ShardProtocolError`` that
    says what is wrong — never another exception type, never a value
    quietly cut short."""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\x06\x01\x00\x00\x00\xff", "string"),  # was UnicodeDecodeError
            (b"\x04\x01\x00\x00\x00x", "bigint"),  # was ValueError
            (b"\x08\x01\x00\x00\x00" * 2000, "nests deeper"),  # was RecursionError
            # was "-3 trailing bytes": a string of 5 declared, 2 present
            (b"\x06\x05\x00\x00\x00ab", "5 bytes declared at offset 5, 2 remain"),
            (b"\x07\x05\x00\x00\x00ab", "5 bytes declared"),
            (b"\x09\x01\x00\x00\x00\x09\x00\x00\x00k\x00", "9 bytes declared"),
            (b"\x0a\x02\x00\x00\x00" + b"\x00" * 8, "16 bytes declared"),
        ],
    )
    def test_malformed_payload_is_a_typed_truthful_error(self, data, message):
        with pytest.raises(ShardProtocolError, match=message):
            decode_payload(data)

    def test_only_the_encoders_spelling_decodes(self):
        """Second spellings of a value would decode to something that
        re-encodes differently — the wire would no longer pin the value."""
        for data in (
            b"\x0a\x00\x00\x00\x00",  # empty f8 array ([] is a generic list)
            b"\x08\x01\x00\x00\x00\x05" + struct.pack("<d", 1.5),  # float list, generic
            b"\x04\x01\x00\x00\x007",  # an int64 spelled as a bigint
            b"\x04\x15\x00\x00\x00+99999999999999999999",  # non-canonical digits
            b"\x09\x02\x00\x00\x00" + b"\x01\x00\x00\x00k\x00" * 2,  # repeated key
        ):
            with pytest.raises(ShardProtocolError):
                decode_payload(data)

    def test_nesting_inside_the_cap_still_decodes(self):
        obj = []
        for _ in range(40):
            obj = [obj]
        assert _roundtrip(obj) == obj


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(st.floats(), min_size=1, max_size=5),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


def _as_decoded(obj):
    if isinstance(obj, (list, tuple)):
        return [_as_decoded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_decoded(v) for k, v in obj.items()}
    return obj


def _mutated(data: bytes, draw) -> bytes:
    """``data`` after one to three drawn byte edits."""
    data = bytearray(data)
    for _ in range(draw.draw(st.integers(1, 3))):
        at = draw.draw(st.integers(0, len(data) - 1)) if data else 0
        how = draw.draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if how == "set" and data:
            data[at] = draw.draw(st.integers(0, 255))
        elif how == "insert":
            data.insert(at, draw.draw(st.integers(0, 255)))
        elif how == "delete" and data:
            del data[at]
        elif how == "cut":
            del data[at:]
    return bytes(data)


def _value_or_typed_refusal(data: bytes) -> None:
    try:
        obj = decode_payload(data)
    except ShardProtocolError:
        return
    assert _encoded(obj) == data


class TestCodecProperties:
    @settings(max_examples=300, deadline=None)
    @given(_payloads)
    def test_vocabulary_roundtrips(self, obj):
        data = _encoded(obj)
        got = decode_payload(data)
        # repr, not ==: it tells 1 from True from 1.0, -0.0 from 0.0,
        # and lets nan equal nan
        assert repr(got) == repr(_as_decoded(obj))
        assert _encoded(got) == data

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=48))
    def test_arbitrary_bytes_decode_or_are_refused(self, data):
        _value_or_typed_refusal(data)

    @settings(max_examples=300, deadline=None)
    @given(_payloads, st.data())
    def test_mutated_payloads_decode_or_are_refused(self, obj, draw):
        _value_or_typed_refusal(_mutated(_encoded(obj), draw))


class _OneFrame:
    """A connection stand-in holding one message: what ``recv_frame``
    reads is whatever bytes the test put there."""

    def __init__(self, data: bytes = b""):
        self.data = data

    def send_bytes(self, data) -> None:
        self.data = bytes(data)

    def recv_bytes(self) -> bytes:
        return self.data


_kind_tags = st.sampled_from(
    [crc32((k + suffix).encode()) for k in FRAME_KINDS for suffix in ("", "+shm")]
)
_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)


def _frame_or_typed_refusal(data: bytes) -> None:
    try:
        kind, payload = recv_frame(_OneFrame(data))
    except ShardProtocolError:
        return
    again = _OneFrame()
    send_frame(again, kind, payload, src="fuzz", dst="fuzz")
    # kind tag and declared size (header bytes 4..16) and the payload;
    # the message id, the src/dst tags and the deadline slot are the
    # sender's own
    assert again.data[4:16] == data[4:16]
    assert again.data[HEADER_STRUCT.size:] == data[HEADER_STRUCT.size:]


class TestFrameHeaderProperties:
    """``recv_frame`` reads a header and a body another process wrote:
    a ``(kind, payload)`` that ``send_frame`` frames back to the same
    kind tag and payload bytes, or a ``ShardProtocolError``."""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes_frame_or_are_refused(self, data):
        _frame_or_typed_refusal(data)

    @settings(max_examples=300, deadline=None)
    @given(
        _u32, st.one_of(_kind_tags, _u32), st.one_of(st.integers(0, 80), _u64),
        _u32, _u32, st.floats(), st.one_of(st.binary(max_size=48), _payloads.map(_encoded)),
    )
    def test_drawn_headers_frame_or_are_refused(
        self, msg_id, tag, nbytes, src, dst, deadline, body
    ):
        header = HEADER_STRUCT.pack(msg_id, tag, nbytes, src, dst, deadline)
        _frame_or_typed_refusal(header + body)
        # and with the size the body really has, so known kinds reach
        # the payload decoder
        header = HEADER_STRUCT.pack(msg_id, tag, len(body), src, dst, deadline)
        _frame_or_typed_refusal(header + body)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FRAME_KINDS), st.one_of(st.none(), _payloads), st.data())
    def test_mutated_frames_frame_or_are_refused(self, kind, obj, draw):
        wire = _OneFrame()
        send_frame(wire, kind, obj, src="parent", dst="shard-0")
        _frame_or_typed_refusal(wire.data)
        _frame_or_typed_refusal(_mutated(wire.data, draw))


def _f8_bytes(max_size: int):
    return st.lists(st.floats(), max_size=max_size).map(
        lambda vals: struct.pack(f"<{len(vals)}d", *vals)
    )


@st.composite
def _op_record(draw):
    """One record as ``OpPointCache.export`` writes it."""
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(1, 3))
    return {
        "family": draw(st.sampled_from(("fam-a", "fam-b", ""))),
        "wf": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "x": draw(_f8_bytes(4)),
        "rows": rows,
        "jacobian": (
            struct.pack(f"<{rows * cols}d", *draw(st.lists(
                st.floats(), min_size=rows * cols, max_size=rows * cols
            ))) if rows else None
        ),
        "point": draw(st.dictionaries(
            st.text(max_size=6),
            st.one_of(st.booleans(), st.floats(), st.integers(-9, 9)),
            max_size=3,
        )),
        "provenance": draw(st.sampled_from(("cold", "seed", "interp"))),
    }


def _record_key(rec):
    return rec["family"], rec["wf"]


#: record lists in export order (families sorted, fuel flow ascending)
_op_records = st.lists(_op_record(), max_size=4, unique_by=_record_key).map(
    lambda recs: sorted(recs, key=_record_key)
)


def _stored_or_refused(records) -> None:
    store = OpPointCache()
    try:
        written = store.preload(records)
    except ValueError:
        assert len(store) == 0
        return
    out = store.export()
    assert written == len(out)
    # nothing invented and nothing altered, down to the type of every
    # value: each stored record is one that was given, bit for bit
    given = [_encoded(rec) for rec in records]
    assert all(_encoded(rec) in given for rec in out)
    keys = [_record_key(rec) for rec in records]
    if all(a < b for a, b in zip(keys, keys[1:])):
        assert _encoded(out) == _encoded(records)


class TestOpStoreRecordProperties:
    """``OpPointCache.preload`` reads records another process decoded
    off the wire: a ``ValueError`` with nothing stored, or a store whose
    ``export()`` is the records it was given."""

    @settings(max_examples=300, deadline=None)
    @given(_payloads.map(_as_decoded))
    def test_arbitrary_payload_values_are_stored_or_refused(self, value):
        _stored_or_refused(value)

    @settings(max_examples=300, deadline=None)
    @given(_op_records)
    def test_exported_records_round_trip_over_the_wire(self, records):
        store = OpPointCache()
        assert store.preload(_roundtrip(records)) == len(records)
        assert _encoded(store.export()) == _encoded(records)

    @settings(max_examples=300, deadline=None)
    @given(_op_records.filter(len), st.data())
    def test_damaged_records_are_stored_or_refused(self, records, draw):
        for _ in range(draw.draw(st.integers(1, 2))):
            rec = records[draw.draw(st.integers(0, len(records) - 1))]
            how = draw.draw(st.sampled_from(("set", "set", "drop", "add", "cut")))
            name = draw.draw(st.sampled_from(sorted(rec))) if rec else "wf"
            if how == "set":
                rec[name] = draw.draw(st.one_of(_scalars, _payloads.map(_as_decoded)))
            elif how == "drop":
                rec.pop(name, None)
            elif how == "add":
                rec[draw.draw(st.text(max_size=4))] = draw.draw(_scalars)
            elif isinstance(rec.get(name), bytes):
                rec[name] = rec[name][: draw.draw(st.integers(0, len(rec[name])))]
        _stored_or_refused(records)


@needs_shm
class TestShmRing:
    def test_write_read_roundtrip_returns_offsets(self):
        ring = ShmRing.create(capacity=256)
        try:
            assert ring.write(b"alpha") == 0
            assert ring.write(b"beta") == 5
            assert ring.read(0, 5) == b"alpha"
            assert ring.read(5, 4) == b"beta"
        finally:
            ring.close()

    def test_wraparound_split_copy(self):
        ring = ShmRing.create(capacity=64)
        try:
            first = bytes(range(40))
            assert ring.write(first) == 0
            assert ring.read(0, 40) == first
            spanning = bytes(range(48))  # crosses the 64-byte boundary
            assert ring.write(spanning) == 40
            assert ring.read(40, 48) == spanning
        finally:
            ring.close()

    def test_full_ring_returns_none_for_pipe_fallback(self):
        ring = ShmRing.create(capacity=32)
        try:
            assert ring.write(b"x" * 32) == 0
            assert ring.write(b"y") is None  # full: caller uses the pipe
            ring.read(0, 32)
            assert ring.write(b"y") == 32  # space reclaimed after consume
        finally:
            ring.close()

    def test_out_of_order_consume_is_protocol_error(self):
        ring = ShmRing.create(capacity=64)
        try:
            ring.write(b"abc")
            with pytest.raises(ShardProtocolError, match="publication order"):
                ring.read(1, 2)
        finally:
            ring.close()

    def test_unpublished_length_is_protocol_error(self):
        ring = ShmRing.create(capacity=64)
        try:
            ring.write(b"abc")
            with pytest.raises(ShardProtocolError, match="only 3 are published"):
                ring.read(0, 9)
        finally:
            ring.close()

    def test_cursors_past_capacity_are_refused(self):
        """The cursors live in memory the peer writes.  A head that
        reads 10,000 on a 64-byte ring used to satisfy ``read(0, 200)``
        with 128 bytes and no error, and move the tail by 200."""
        ring = ShmRing.create(capacity=64)
        try:
            struct.pack_into("<Q", ring._buf, 0, 10_000)
            with pytest.raises(ShardProtocolError, match="64-byte ring"):
                ring.read(0, 200)
            assert ring._cursors() == (10_000, 0)
            # and a tail scribbled past the head used to let a write
            # larger than the ring through: it goes to the pipe instead
            struct.pack_into("<QQ", ring._buf, 0, 0, 100)
            assert ring.write(b"x" * 120) is None
        finally:
            ring.close()

    @settings(max_examples=300, deadline=None)
    @example(writes=[], consumed=0, scribble=(10_000, 0), ref=(0, 200))
    @given(
        writes=st.lists(st.binary(min_size=1, max_size=40), max_size=5),
        consumed=st.integers(0, 5),
        scribble=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 300), st.integers(0, 300)),
            st.tuples(_u64, _u64),
        ),
        ref=st.tuples(
            st.one_of(st.integers(0, 300), _u64),
            st.one_of(st.integers(0, 300), _u64),
        ),
    )
    def test_any_reference_reads_the_published_bytes_or_is_refused(
        self, writes, consumed, scribble, ref
    ):
        """Whatever ``(offset, length)`` arrives and whatever the
        cursors say: a typed refusal that moves nothing, or exactly the
        bytes the ring holds at that reference — in full, never a short
        read — with the tail moved by exactly their length."""
        capacity = 64
        ring = ShmRing.create(capacity)
        try:
            held = bytearray(capacity)  # what the data region holds
            frames = []
            for data in writes:
                at = ring.write(data)
                if at is not None:
                    frames.append((at, data))
                    for i, byte in enumerate(data):
                        held[(at + i) % capacity] = byte
            for at, data in frames[:consumed]:
                assert ring.read(at, len(data)) == data
            if scribble is not None:
                struct.pack_into("<QQ", ring._buf, 0, *scribble)
            head, tail = ring._cursors()
            offset, length = ref
            try:
                got = ring.read(offset, length)
            except ShardProtocolError:
                assert ring._cursors() == (head, tail)
                return
            assert offset == tail and length <= head - tail <= capacity
            assert got == bytes(held[(offset + i) % capacity] for i in range(length))
            assert ring._cursors() == (head, tail + length)
        finally:
            ring.close()

    def test_owner_close_unlinks_segment(self):
        ring = ShmRing.create(capacity=64)
        name = ring.name
        peer = ShmRing.attach(name)
        peer.close()  # non-owner close leaves the segment linked
        ShmRing.attach(name).close()
        ring.close()
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)
        ring.close()  # idempotent

    def test_attach_sees_owner_writes(self):
        ring = ShmRing.create(capacity=128)
        peer = ShmRing.attach(ring.name)
        try:
            ring.write(b"cross-process bytes")
            assert peer.read(0, 19) == b"cross-process bytes"
        finally:
            peer.close()
            ring.close()

    def test_reader_tail_survives_concurrent_writer_publish(self):
        """Regression for the SPSC cursor race: the writer must store
        only its own head field.  The protocol legitimately puts two
        parent->worker frames in flight (op_seed, then wave 1), so a
        publish can land while the reader is mid-consume — emulated
        here by feeding the writer a cursor snapshot taken *before*
        the reader advanced its tail."""
        ring = ShmRing.create(capacity=256)
        peer = ShmRing.attach(ring.name)
        try:
            ring.write(b"frame-one")
            stale = ring._cursors()  # (9, 0): before the consume below
            assert peer.read(0, 9) == b"frame-one"  # tail -> 9
            with mock.patch.object(ring, "_cursors", return_value=stale):
                ring.write(b"frame-two")  # the concurrent publish
            # the reader's tail advance was not rolled back to 0 ...
            assert peer._cursors() == (18, 9)
            # ... so the next in-order consume still resolves
            assert peer.read(9, 9) == b"frame-two"
        finally:
            peer.close()
            ring.close()

    def test_writer_head_survives_concurrent_reader_consume(self):
        """The mirror image: the reader must store only its own tail
        field, or a consume concurrent with the writer's next publish
        would roll the published head back."""
        ring = ShmRing.create(capacity=256)
        peer = ShmRing.attach(ring.name)
        try:
            ring.write(b"frame-one")
            stale = peer._cursors()  # (9, 0): before the publish below
            ring.write(b"frame-two")  # head -> 18
            with mock.patch.object(peer, "_cursors", return_value=stale):
                assert peer.read(0, 9) == b"frame-one"  # concurrent consume
            # the writer's second publish was not rolled back ...
            assert ring._cursors() == (18, 9)
            # ... so frame two is still published and readable
            assert peer.read(9, 9) == b"frame-two"
        finally:
            peer.close()
            ring.close()

    def test_attach_capacity_comes_from_header_not_segment_size(
        self, monkeypatch
    ):
        """Regression: some platforms round a segment up to a page
        multiple, so ``seg.size`` on the attaching side can exceed the
        creator's request — the wrap point must come from the capacity
        stored in the header, or wrapped payloads decode corrupted."""
        import repro.serve.shm as shm_mod

        real_attach = shm_mod._attach_segment

        class _PageRounded:
            """An attach result whose ``size`` lies upward, the way a
            page-rounding platform's mapping does."""

            def __init__(self, seg):
                self._seg = seg
                self.buf = seg.buf
                self.name = seg.name
                self.size = seg.size + 4096

            def close(self):
                self._seg.close()

        monkeypatch.setattr(
            shm_mod, "_attach_segment",
            lambda name: _PageRounded(real_attach(name)),
        )
        ring = ShmRing.create(capacity=100)
        peer = ShmRing.attach(ring.name)
        try:
            assert peer.capacity == ring.capacity == 100
            assert ring.write(bytes(30)) == 0
            assert peer.read(0, 30) == bytes(30)
            spanning = bytes(range(80))  # wraps at the 100-byte mark
            assert ring.write(spanning) == 30
            assert peer.read(30, 80) == spanning
        finally:
            peer.close()
            ring.close()


class _ExplodingConn:
    """A pipe stand-in whose send always fails; optionally it first
    exports a memoryview over the outgoing buffer, the way a real
    ``Connection`` can when interrupted mid-write."""

    def __init__(self, keep_view: bool = False):
        self.keep_view = keep_view
        self.kept = []

    def send_bytes(self, data):
        if self.keep_view and isinstance(data, (bytearray, memoryview)):
            self.kept.append(memoryview(data))
        raise OSError("simulated broken pipe")


class TestFramePath:
    def test_pipe_frame_roundtrips_binary_payload(self):
        rx, tx = multiprocessing.Pipe(duplex=False)
        try:
            payload = {"seqs": [0, 1], "vals": [1.5, 2.5], "blob": b"\x00\x01"}
            send_frame(tx, "shard-serve", payload, src="parent", dst="w0")
            kind, got = recv_frame(rx)
            assert (kind, got) == ("shard-serve", payload)
        finally:
            rx.close(), tx.close()

    @needs_shm
    def test_large_payload_travels_by_ring_reference(self):
        rx, tx = multiprocessing.Pipe(duplex=False)
        ring = ShmRing.create(capacity=1 << 20)
        try:
            payload = {"arr": [float(i) for i in range(8192)]}
            send_frame(tx, "shard-result", payload, "w0", "parent",
                       ring=ring, threshold=1)
            # only header + (offset, length) reference crossed the pipe
            raw = rx.recv_bytes()
            assert len(raw) == HEADER_STRUCT.size + 16
            assert ring.used > 0
            # re-send for the real consume path
            send_frame(tx, "shard-result", payload, "w0", "parent",
                       ring=ring, threshold=1)
            rx2, tx2 = multiprocessing.Pipe(duplex=False)
            tx2.send_bytes(rx.recv_bytes())  # replay the second frame
            # resolve the *first* published body manually, then the frame
            nbytes = struct.unpack_from("<Q", raw, HEADER_STRUCT.size + 8)[0]
            ring.read(0, nbytes)
            assert recv_frame(rx2, ring=ring) == ("shard-result", payload)
            rx2.close(), tx2.close()
        finally:
            ring.close()
            rx.close(), tx.close()

    @needs_shm
    def test_full_ring_falls_back_to_inline_pipe_frame(self):
        rx, tx = multiprocessing.Pipe(duplex=False)
        ring = ShmRing.create(capacity=64)  # far too small for the payload
        try:
            payload = {"arr": [float(i) for i in range(1000)]}
            send_frame(tx, "shard-result", payload, "w0", "parent",
                       ring=ring, threshold=1)
            assert ring.used == 0  # nothing was published
            assert recv_frame(rx, ring=ring) == ("shard-result", payload)
        finally:
            ring.close()
            rx.close(), tx.close()

    def test_reference_frame_without_ring_is_protocol_error(self):
        if not shm_available():
            pytest.skip("no shared memory on this host")
        rx, tx = multiprocessing.Pipe(duplex=False)
        ring = ShmRing.create(capacity=1 << 16)
        try:
            send_frame(tx, "shard-close", {"arr": [1.0] * 500}, "p", "w",
                       ring=ring, threshold=1)
            with pytest.raises(ShardProtocolError, match="no ring attached"):
                recv_frame(rx, ring=None)
        finally:
            ring.close()
            rx.close(), tx.close()

    def test_unknown_kind_is_rejected_before_any_io(self):
        conn = _ExplodingConn()
        with pytest.raises(ShardProtocolError, match="unknown frame kind"):
            send_frame(conn, "shard-bogus", None, "p", "w")
        assert not conn.kept


class TestSendPathLeaks:
    """Satellite regression: a failure anywhere in ``send_frame``
    surfaces as the transport's own ``OSError`` — never a
    ``BufferError``, even when the failed send leaves a memoryview
    exported over the frame buffer — and leaks no shared-memory
    segment."""

    def test_pipe_failure_surfaces_as_oserror(self):
        conn = _ExplodingConn()
        for _ in range(16):
            with pytest.raises(OSError, match="simulated broken pipe"):
                send_frame(conn, "shard-serve", {"arr": [1.0] * 64}, "p", "w")

    def test_exported_view_failure_drops_buffer_without_raising(self):
        conn = _ExplodingConn(keep_view=True)
        for _ in range(4):
            with pytest.raises(OSError, match="simulated broken pipe"):
                send_frame(conn, "shard-serve", {"arr": [1.0] * 64}, "p", "w")
        # the BufferError never masked the transport error
        assert len(conn.kept) == 4
        for view in conn.kept:
            view.release()

    @needs_shm
    def test_failure_after_ring_publish_leaks_no_segment(self):
        ring = ShmRing.create(capacity=1 << 16)
        name = ring.name
        conn = _ExplodingConn()
        with pytest.raises(OSError, match="simulated broken pipe"):
            send_frame(conn, "shard-result", {"arr": [1.0] * 1000}, "w", "p",
                       ring=ring, threshold=1)
        assert ring.used > 0  # the body was published, the reference lost
        ring.close()  # owner teardown still unlinks the orphaned bytes
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)

    @needs_shm
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_teardown_unlinks_every_ring(self, start_method):
        from repro.serve.demo import build_session_specs
        from repro.serve.shards import ShardPool, serve_sessions_sharded

        specs = build_session_specs(4, classes=2, points=2)
        pool = ShardPool(2, start_method=start_method, transport="shm")
        names = [r.name for r in pool._rings_out + pool._rings_in]
        assert names, "shm transport must actually create rings"
        serve_sessions_sharded(specs, pool)
        pool.close()
        leaked = [
            n for n in names
            if os.path.exists(os.path.join("/dev/shm", n.lstrip("/")))
        ]
        assert not leaked


class TestTransportResolution:
    def test_literal_choices(self):
        assert resolve_transport("pipe") == "pipe"
        if shm_available():
            assert resolve_transport("shm") == "shm"
            assert resolve_transport("auto") == "shm"
        else:
            assert resolve_transport("auto") == "pipe"
            with pytest.raises(RuntimeError, match="unavailable"):
                resolve_transport("shm")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown shard transport"):
            resolve_transport("carrier-pigeon")

    def test_threshold_and_capacity_defaults_are_sane(self):
        assert 0 < SHM_THRESHOLD < DEFAULT_RING_BYTES
