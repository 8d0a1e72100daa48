"""The shared-memory shard data plane: binary frames + SPSC rings.

The paper couples heterogeneous simulation processes through a *typed
binary* wire format precisely because text encoding dominates
fine-grained coupling.  The shard plane does the same between parent
and workers — no float crosses as a digit string, and no large payload
goes through the pipe's chunked store-and-forward path:

* **Binary payload codec** (:func:`encode_payload_into` /
  :func:`decode_payload`): the frame payloads (session specs, result
  rows, operating-point stores) are struct-packed — one tag byte per
  value, little-endian fixed-width scalars, and *float arrays as raw
  IEEE-754 float64 bytes* (a ``points`` ladder or a solution vector is
  ``8n`` bytes, not a comma-joined digit string).  Round-trips are
  bit-exact by construction, which is what lets the shard plane keep
  its bitwise digest-parity contract.

* **SPSC shared-memory rings** (:class:`ShmRing`): one
  :mod:`multiprocessing.shared_memory` segment per direction per
  worker, carrying payloads above :data:`SHM_THRESHOLD` by
  ``(offset, length)`` reference.  The existing 32-byte
  :data:`~repro.network.transport.HEADER_STRUCT` frame still crosses
  the pipe — pipes remain the control/wakeup channel, and framing,
  ordering and backpressure all stay on the pipe — but a large payload
  is written **once** into the ring and read in place on the far side,
  instead of being chunked through the kernel pipe buffer twice.
  Single-producer/single-consumer with monotonic 64-bit head/tail
  counters: the writer only advances ``head``, the reader only advances
  ``tail``, and the control message on the pipe orders the two, so no
  locks cross the boundary.  A payload the ring cannot hold falls back
  to the pipe transparently.

:func:`send_frame` / :func:`recv_frame` are the one framing path for
both transports; :mod:`repro.serve.shards` drives them.  The protocol
is the seven :data:`FRAME_KINDS`; there is no resync frame (a worker
whose stream cannot be trusted is replaced) and no second byte format
(the operating-point store crosses as payload records).  Every frame
is assembled in a fresh ``bytearray``: nothing outlives the send, so an
aborted send (broken pipe mid-write) surfaces as its ``OSError`` and
leaves nothing to clean up.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from typing import Optional, Tuple
from zlib import crc32

from ..network.transport import HEADER_STRUCT, NO_DEADLINE

__all__ = [
    "NotShardSafe",
    "ShardProtocolError",
    "ShmRing",
    "FRAME_KINDS",
    "SHM_THRESHOLD",
    "DEFAULT_RING_BYTES",
    "encode_payload_into",
    "decode_payload",
    "send_frame",
    "recv_frame",
    "shm_available",
    "resolve_transport",
]


class NotShardSafe(TypeError):
    """A live runtime object was about to cross a process boundary.

    Raised eagerly, with the object named, instead of letting ``pickle``
    fail deep inside ``multiprocessing`` with an opaque traceback.  The
    shard plane ships *descriptions* (session specs, result rows, op
    stores) as framed wire payloads; objects that own interpreter state
    — live transports, installations — stay put.
    """


class ShardProtocolError(RuntimeError):
    """A malformed frame on the shard data plane: unknown kind tag,
    truncated payload, a header/payload length mismatch, or a
    shared-memory reference that disagrees with the ring's cursor."""


# --------------------------------------------------------------------------
# frame kinds (the header carries crc32(kind); "+shm" variants mean the
# payload travelled by ring reference, not inline on the pipe)
# --------------------------------------------------------------------------

#: base frame kinds on the shard control pipe
FRAME_KINDS = (
    "shard-open",     # parent -> worker: begin an episode (installation + seeds)
    "shard-serve",    # parent -> worker: one wave of sessions
    "shard-result",   # worker -> parent: the wave's results
    "shard-close",    # parent -> worker: settle the episode
    "shard-closed",   # worker -> parent: episode stats + op-store delta
    "shard-error",    # worker -> parent: traceback
    "shard-exit",     # parent -> worker: terminate
)

_REF_SUFFIX = "+shm"
_KIND_BY_CRC = {crc32(k.encode()): k for k in FRAME_KINDS}
_KIND_BY_CRC.update(
    {crc32((k + _REF_SUFFIX).encode()): k + _REF_SUFFIX for k in FRAME_KINDS}
)
_frame_ids = itertools.count()

#: payloads at or above this many bytes travel by shared-memory
#: reference when a ring is attached (below it, the pipe's copy is
#: cheaper than the bookkeeping)
SHM_THRESHOLD = 16 * 1024

#: default per-direction ring capacity
DEFAULT_RING_BYTES = 8 * 1024 * 1024

#: the (offset, length) reference that replaces an inline payload
_REF_STRUCT = struct.Struct("<QQ")


# --------------------------------------------------------------------------
# binary payload codec: tag byte + little-endian struct scalars
# --------------------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT64 = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_F8ARRAY = 0x0A  # a list whose elements are all floats: raw float64 bytes

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: ``array('d')`` speaks machine order; the wire is little-endian, so
#: big-endian hosts byteswap around the C fast path
_NATIVE_LE = sys.byteorder == "little"


def _is_f8_list(obj) -> bool:
    """Whether every element is exactly ``float`` (bools and ints must
    keep their types through the generic path).  The first-element probe
    rejects int/str lists for one type check; the full scan runs at C
    speed via ``map`` — a per-element generator here would cost more
    than packing the array itself."""
    return bool(obj) and type(obj[0]) is float and set(map(type, obj)) == {
        float
    }


def _f8_unpack(view) -> list:
    a = array("d")
    a.frombytes(view)
    if not _NATIVE_LE:  # pragma: no cover - big-endian hosts only
        a.byteswap()
    return a.tolist()


def encode_payload_into(buf: bytearray, obj) -> None:
    """Append the binary encoding of ``obj`` to ``buf``.

    Handles the shard payload vocabulary — ``None``, bools, ints,
    floats, strings, bytes, lists/tuples, and string-keyed dicts —
    and nothing else (a foreign type raises ``NotShardSafe``; the
    :func:`~repro.serve.shards.assert_shard_safe` walk runs first on
    every outbound payload, so this is the backstop, not the UI).
    Lists of floats take the array fast path: raw float64 bytes."""
    if obj is None:
        buf.append(_T_NONE)
    elif obj is True:
        buf.append(_T_TRUE)
    elif obj is False:
        buf.append(_T_FALSE)
    elif isinstance(obj, int):
        if _INT64_MIN <= obj <= _INT64_MAX:
            buf.append(_T_INT64)
            buf += _I64.pack(obj)
        else:
            text = str(obj).encode()
            buf.append(_T_BIGINT)
            buf += _U32.pack(len(text))
            buf += text
    elif isinstance(obj, float):
        buf.append(_T_FLOAT)
        buf += _F64.pack(obj)
    elif isinstance(obj, str):
        raw = obj.encode()
        buf.append(_T_STR)
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        buf.append(_T_BYTES)
        buf += _U32.pack(len(obj))
        buf += obj
    elif isinstance(obj, (list, tuple)):
        if _is_f8_list(obj):
            buf.append(_T_F8ARRAY)
            buf += _U32.pack(len(obj))
            buf += struct.pack(f"<{len(obj)}d", *obj)
        else:
            buf.append(_T_LIST)
            buf += _U32.pack(len(obj))
            for v in obj:
                encode_payload_into(buf, v)
    elif isinstance(obj, dict):
        buf.append(_T_DICT)
        buf += _U32.pack(len(obj))
        for k, v in obj.items():
            if not isinstance(k, str):
                raise NotShardSafe(
                    f"{type(k).__name__} dict key {k!r} is not "
                    f"shard-serializable; shard frames carry str keys only"
                )
            raw = k.encode()
            buf += _U32.pack(len(raw))
            buf += raw
            encode_payload_into(buf, v)
    else:
        raise NotShardSafe(
            f"{type(obj).__name__} is not shard-serializable; shard frames "
            f"carry scalars, bytes, lists, and str-keyed dicts only"
        )


#: containers nested deeper than this are refused: the decoder recurses
#: per level, and real shard payloads nest under ten deep
_MAX_DEPTH = 64


def _span(view: memoryview, pos: int, width: int = 1) -> Tuple[int, int]:
    """The ``(start, end)`` of the length-prefixed run of ``width``-byte
    items whose u32 count sits at ``pos``, checked against the payload's
    end (a slice past it would silently come back short)."""
    (n,) = _U32.unpack_from(view, pos)
    start = pos + 4
    end = start + n * width
    if end > len(view):
        raise ShardProtocolError(
            f"truncated binary payload: {n * width} bytes declared at offset "
            f"{start}, {len(view) - start} remain"
        )
    return start, end


def _decode_str(view: memoryview, pos: int) -> Tuple[str, int]:
    start, end = _span(view, pos)
    try:
        return str(view[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ShardProtocolError(f"binary payload string: {exc}") from None


def _decode(view: memoryview, pos: int, depth: int = 0) -> Tuple[object, int]:
    """One value at ``pos``.  Only the encoder's own spelling of a value
    is accepted, so whatever decodes re-encodes to the same bytes."""
    tag = view[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT64:
        return _I64.unpack_from(view, pos)[0], pos + 8
    if tag == _T_FLOAT:
        return _F64.unpack_from(view, pos)[0], pos + 8
    if tag == _T_STR:
        return _decode_str(view, pos)
    if tag == _T_BYTES:
        start, end = _span(view, pos)
        return bytes(view[start:end]), end
    if tag == _T_BIGINT:
        start, end = _span(view, pos)
        text = bytes(view[start:end])
        try:
            value = int(text)
        except ValueError:
            value = 0  # inside int64: refused below
        if _INT64_MIN <= value <= _INT64_MAX or str(value).encode() != text:
            raise ShardProtocolError(
                f"binary payload bigint {text[:40]!r} is not a canonical "
                f"integer outside int64"
            )
        return value, end
    if tag == _T_F8ARRAY:
        start, end = _span(view, pos, 8)
        if start == end:
            raise ShardProtocolError("binary payload has an empty f8 array")
        return _f8_unpack(view[start:end]), end
    if tag == _T_LIST or tag == _T_DICT:
        if depth >= _MAX_DEPTH:
            raise ShardProtocolError(
                f"binary payload nests deeper than {_MAX_DEPTH} containers"
            )
        (n,) = _U32.unpack_from(view, pos)
        pos += 4
        if tag == _T_LIST:
            out = []
            for _ in range(n):
                v, pos = _decode(view, pos, depth + 1)
                out.append(v)
            if _is_f8_list(out):
                raise ShardProtocolError(
                    "binary payload spells a float list as a generic list"
                )
            return out, pos
        d = {}
        for _ in range(n):
            k, pos = _decode_str(view, pos)
            if k in d:
                raise ShardProtocolError(
                    f"binary payload repeats dict key {k!r}"
                )
            d[k], pos = _decode(view, pos, depth + 1)
        return d, pos
    raise ShardProtocolError(f"unknown payload tag 0x{tag:02x}")


def decode_payload(data) -> object:
    """Decode one binary payload (the inverse of
    :func:`encode_payload_into`).  The bytes come from another process:
    anything but a well-formed payload — truncation, a length past the
    end, bad UTF-8, over-deep nesting, trailing bytes — raises
    :class:`ShardProtocolError`."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    try:
        obj, pos = _decode(view, 0)
    except (struct.error, IndexError) as exc:
        raise ShardProtocolError(f"truncated binary payload: {exc}") from None
    if pos != len(view):
        raise ShardProtocolError(
            f"binary payload has {len(view) - pos} trailing bytes"
        )
    return obj


# --------------------------------------------------------------------------
# the SPSC shared-memory ring
# --------------------------------------------------------------------------

# segment header: head (writer-owned), tail (reader-owned), capacity
# (written once at create).  Each side rewrites ONLY its own 8-byte
# field — packing both cursors from one snapshot would let a concurrent
# peer update be rolled back (two frames are legitimately in flight on
# the parent->worker ring: op_seed then wave 1).
_RING_HEADER = struct.Struct("<QQQ")
_U64 = struct.Struct("<Q")
_HEAD_OFF = 0
_TAIL_OFF = 8
_CAP_OFF = 16
_DATA_OFF = _RING_HEADER.size


def _attach_segment(name: str):
    """Attach an existing segment by name.

    Python < 3.13 enrolls even an *attach* in the resource tracker
    (there is no ``track=`` parameter yet).  That is harmless here —
    fork and spawn workers both inherit the parent's tracker process,
    whose per-type cache is a set, so the worker's registration
    collapses into the parent's and the owning parent's unlink-time
    unregister clears it exactly once.  Explicitly *unregistering* on
    attach would be wrong for the same reason: it would strip the
    parent's entry and the tracker would warn at unlink."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


class ShmRing:
    """A single-producer/single-consumer byte ring over one shared
    segment.

    Layout: two monotonic ``u64`` cursors (``head`` — bytes ever
    written, ``tail`` — bytes ever consumed), the ``u64`` capacity
    (written once at create, read back on attach — ``seg.size`` may be
    page-rounded upward on some platforms, so the mapped size is *not*
    the wrap point), then ``capacity`` data bytes.  The writer
    publishes *after* copying (head moves last), the reader consumes
    after reading (tail moves last), and **each side stores only its
    own cursor field** — reading the peer's cursor stale is safe (it
    only under-reports free/published space), but rewriting it from a
    snapshot would race the peer's concurrent update.  The pipe's
    control message orders write-before-read, so an aborted write never
    publishes garbage and a reference is validated against the reader's
    own cursor.
    """

    def __init__(self, segment, capacity: int, owner: bool):
        self._seg = segment
        self._buf = segment.buf
        self.capacity = capacity
        self.owner = owner
        self.closed = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "ShmRing":
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=_DATA_OFF + capacity)
        _RING_HEADER.pack_into(seg.buf, 0, 0, 0, capacity)
        return cls(seg, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach by name, taking the wrap point from the header's
        stored capacity — never from ``seg.size``, which some platforms
        round up to a page multiple and would leave writer and reader
        disagreeing on where payloads wrap."""
        seg = _attach_segment(name)
        if seg.size < _DATA_OFF:
            seg.close()
            raise ShardProtocolError(
                f"shm segment {name!r} is {seg.size} bytes: too small to "
                f"hold a {_DATA_OFF}-byte ring header"
            )
        (capacity,) = _U64.unpack_from(seg.buf, _CAP_OFF)
        if capacity == 0 or seg.size < _DATA_OFF + capacity:
            size = seg.size
            seg.close()
            raise ShardProtocolError(
                f"shm segment {name!r} header claims {capacity} data bytes "
                f"but the segment maps only {size}"
            )
        return cls(seg, capacity, owner=False)

    @property
    def name(self) -> str:
        return self._seg.name

    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks the
        segment from the system.  Idempotent — the teardown paths
        (pool close, worker exit, error unwind) may all race to it."""
        if self.closed:
            return
        self.closed = True
        self._buf = None
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - exported view still live
            pass
        if self.owner:
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------- cursors
    def _cursors(self) -> Tuple[int, int]:
        return (
            _U64.unpack_from(self._buf, _HEAD_OFF)[0],
            _U64.unpack_from(self._buf, _TAIL_OFF)[0],
        )

    @property
    def used(self) -> int:
        head, tail = self._cursors()
        return head - tail

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # -------------------------------------------------------------- write
    def write(self, data) -> Optional[int]:
        """Copy ``data`` into the ring and return its absolute offset
        (the pre-write head), or ``None`` when the ring lacks space —
        the caller falls back to the pipe.  Publish-last: the head
        cursor moves only after the copy completes, so a failure
        mid-copy leaves the ring consistent."""
        if self.closed:
            return None
        head, tail = self._cursors()
        n = len(data)
        if n == 0 or not 0 <= head - tail <= self.capacity - n:
            return None
        src = data if isinstance(data, memoryview) else memoryview(data)
        try:
            pos = _DATA_OFF + head % self.capacity
            first = min(n, _DATA_OFF + self.capacity - pos)
            self._buf[pos : pos + first] = src[:first]
            if first < n:
                self._buf[_DATA_OFF : _DATA_OFF + (n - first)] = src[first:]
        finally:
            if src is not data:
                src.release()
        # publish: store ONLY the writer-owned head — the reader may be
        # consuming a previously published frame right now, and packing
        # a (head, tail) snapshot would roll its tail back
        _U64.pack_into(self._buf, _HEAD_OFF, head + n)
        return head

    # --------------------------------------------------------------- read
    def read(self, offset: int, length: int) -> bytes:
        """Consume ``length`` bytes previously published at ``offset``.

        The offset must equal the reader's own tail cursor — frames are
        consumed strictly in publication order (the pipe's control
        messages arrive in order) — and must already be published;
        anything else is protocol drift, not a wait condition."""
        head, tail = self._cursors()
        if not 0 <= head - tail <= self.capacity:
            # the cursors live in memory the peer writes
            raise ShardProtocolError(
                f"shm ring cursors (head {head}, tail {tail}) claim "
                f"{head - tail} bytes published in a {self.capacity}-byte ring"
            )
        if offset != tail:
            raise ShardProtocolError(
                f"shm reference at offset {offset} but ring tail is {tail}: "
                f"frames must be consumed in publication order"
            )
        if not 0 <= length <= head - tail:
            raise ShardProtocolError(
                f"shm reference claims {length} bytes but only "
                f"{head - tail} are published"
            )
        pos = _DATA_OFF + tail % self.capacity
        first = min(length, _DATA_OFF + self.capacity - pos)
        out = bytes(self._buf[pos : pos + first])
        if first < length:
            out += bytes(self._buf[_DATA_OFF : _DATA_OFF + (length - first)])
        # consume: store ONLY the reader-owned tail — the writer may be
        # publishing the next frame concurrently (the parent puts the
        # op_seed and wave-1 frames in flight back to back), and packing
        # a (head, tail) snapshot would roll its head back
        _U64.pack_into(self._buf, _TAIL_OFF, tail + length)
        return out


# --------------------------------------------------------------------------
# framing: one path for both transports
# --------------------------------------------------------------------------

def send_frame(
    conn,
    kind: str,
    payload_obj,
    src: str,
    dst: str,
    ring: Optional[ShmRing] = None,
    threshold: int = SHM_THRESHOLD,
) -> None:
    """Frame ``payload_obj`` and ship it: header + payload in one piece
    over the pipe, or — when a ``ring`` is attached and the payload
    clears ``threshold`` — payload into shared memory once, with only
    the 32-byte header plus an ``(offset, length)`` reference crossing
    the pipe.  The frame reuses the RPC runtime's packed header
    (:data:`HEADER_STRUCT`: call id, kind tag, payload size, src/dst
    tags, an unused deadline slot), assembled in a fresh buffer."""
    if kind not in FRAME_KINDS:
        raise ShardProtocolError(f"unknown frame kind {kind!r}")
    buf = bytearray(HEADER_STRUCT.size)
    if payload_obj is not None:
        encode_payload_into(buf, payload_obj)
    nbytes = len(buf) - HEADER_STRUCT.size
    offset = None
    if ring is not None and nbytes >= threshold:
        # the view is released before the buffer is resized below
        with memoryview(buf)[HEADER_STRUCT.size :] as body:
            offset = ring.write(body)  # None: ring full, the frame goes inline
    if offset is not None:
        # only the header and the reference cross the pipe
        kind += _REF_SUFFIX
        buf[HEADER_STRUCT.size :] = _REF_STRUCT.pack(offset, nbytes)
    HEADER_STRUCT.pack_into(
        buf,
        0,
        next(_frame_ids) & 0xFFFFFFFF,
        crc32(kind.encode()),
        nbytes,
        crc32(src.encode()),
        crc32(dst.encode()),
        NO_DEADLINE,
    )
    conn.send_bytes(buf)


def recv_frame(conn, ring: Optional[ShmRing] = None) -> Tuple[str, Optional[object]]:
    """Read one frame; returns ``(kind, payload)`` after validating the
    header against the payload actually received.  A ``+shm`` reference
    frame resolves its payload out of ``ring`` (consuming it) before
    decoding."""
    data = conn.recv_bytes()
    if len(data) < HEADER_STRUCT.size:
        raise ShardProtocolError(
            f"runt frame: {len(data)} bytes < {HEADER_STRUCT.size}-byte header"
        )
    _msg_id, kind_crc, nbytes, _src, _dst, _deadline = HEADER_STRUCT.unpack_from(data)
    kind = _KIND_BY_CRC.get(kind_crc)
    if kind is None:
        raise ShardProtocolError(f"unknown frame kind tag 0x{kind_crc:08x}")
    body = memoryview(data)[HEADER_STRUCT.size :]
    if kind.endswith(_REF_SUFFIX):
        kind = kind[: -len(_REF_SUFFIX)]
        if ring is None:
            raise ShardProtocolError(
                f"{kind}: shm reference frame but no ring attached"
            )
        if len(body) != _REF_STRUCT.size:
            raise ShardProtocolError(
                f"{kind}: shm reference must be {_REF_STRUCT.size} bytes, "
                f"got {len(body)}"
            )
        offset, length = _REF_STRUCT.unpack(body)
        if length != nbytes:
            raise ShardProtocolError(
                f"{kind}: header claims {nbytes} payload bytes, "
                f"reference claims {length}"
            )
        body = memoryview(ring.read(offset, length))
    elif len(body) != nbytes:
        raise ShardProtocolError(
            f"{kind}: header claims {nbytes} payload bytes, got {len(body)}"
        )
    if not nbytes:
        return kind, None
    payload = decode_payload(body)
    if payload is None:  # send_frame spells "no payload" as no bytes, only
        raise ShardProtocolError(f"{kind}: empty payload spelled as an explicit None")
    return kind, payload


# --------------------------------------------------------------------------
# transport resolution
# --------------------------------------------------------------------------

def shm_available() -> bool:
    """Whether this box can actually create and map a shared-memory
    segment (containers without /dev/shm, restricted sandboxes, and
    exotic platforms cannot — ``transport="auto"`` then stays on
    pipes)."""
    try:
        ring = ShmRing.create(capacity=64)
    except Exception:
        return False
    try:
        ring.write(b"probe")
        ok = ring.read(0, 5) == b"probe"
    except Exception:  # pragma: no cover - defensive
        ok = False
    finally:
        ring.close()
    return ok


def resolve_transport(transport: str) -> str:
    """Normalize a ``ShardPool`` transport choice: ``"pipe"`` and
    ``"shm"`` are taken literally (``"shm"`` raises where unavailable,
    better loud than silently slow), ``"auto"`` probes."""
    if transport == "auto":
        return "shm" if shm_available() else "pipe"
    if transport == "pipe":
        return "pipe"
    if transport == "shm":
        if not shm_available():
            raise RuntimeError(
                "transport='shm' requested but shared memory is unavailable "
                "on this host (no /dev/shm?); use transport='auto' to fall "
                "back to pipes"
            )
        return "shm"
    raise ValueError(
        f"unknown shard transport {transport!r}: expected 'pipe', 'shm', or 'auto'"
    )
