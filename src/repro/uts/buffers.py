"""Pooled wire buffers.

The RPC hot path encodes every request and reply.  :class:`BufferPool`
hands out reusable ``bytearray`` buffers; codecs append into them via
``encode_into`` (one ``Struct.pack`` and one append for a fixed-layout
message) and the transport carries one read-only ``memoryview`` of the
buffer through every hop unchanged: once encoded, a payload is never
copied again until it is decoded.

Buffers must have all exported ``memoryview``\\ s released before going
back to the pool — ``release`` clears the buffer, which raises
``BufferError`` if a view is still live, turning a use-after-release
into an immediate error instead of silent corruption.

Pools are **per-process**: a pooled ``bytearray`` must never be shared
across an OS process boundary (a forked child would pop copy-on-write
twins of the parent's buffers — same virtual addresses, divergent
contents, and any ``memoryview`` discipline the parent holds is
invisible to the child).  Every live pool is therefore emptied in a
forked child by an ``os.register_at_fork`` hook, and a spawned child
imports this module afresh, so a worker always starts from an empty
pool (the process-sharded serve plane in :mod:`repro.serve.shards`
leans on this).  A pool belongs to the one thread that runs the
program: nothing here is synchronised.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from typing import Iterator, List

__all__ = ["BufferPool", "WIRE_BUFFERS"]

#: every live pool, for the at-fork reset
_POOLS: "weakref.WeakSet[BufferPool]" = weakref.WeakSet()


def _empty_pools_in_forked_child() -> None:
    # the inherited buffers are copy-on-write twins of the parent's:
    # reusing them would 'share' pooled memory across the boundary
    for pool in _POOLS:
        pool._free = []


os.register_at_fork(after_in_child=_empty_pools_in_forked_child)


class BufferPool:
    """A free list of reusable ``bytearray`` encode buffers.

    What is recycled is the buffer *object* and the discipline that
    comes with it — a view still exported when its buffer goes back is
    a ``BufferError`` — not capacity: CPython returns an emptied
    ``bytearray``'s storage, so the next encode allocates its bytes.
    """

    def __init__(self) -> None:
        self._free: List[bytearray] = []
        _POOLS.add(self)

    def acquire(self) -> bytearray:
        """An empty buffer, reusing a previously released one if any."""
        free = self._free
        return free.pop() if free else bytearray()

    def release(self, buf: bytearray) -> None:
        """Return a buffer to the pool.

        The caller must have released every ``memoryview`` exported over
        the buffer first; clearing raises ``BufferError`` otherwise."""
        del buf[:]
        self._free.append(buf)

    def safe_release(self, buf: bytearray) -> bool:
        """Return a buffer to the pool, tolerating a still-exported view.

        An aborted pipe/socket send can leave the transport's internal
        ``memoryview`` exported over the buffer with no way for the
        caller to release it; clearing would raise ``BufferError``.  The
        frame senders therefore use this variant on their unwind paths:
        the buffer goes back to the pool when clean, and is simply
        dropped (left to the GC, never pooled dirty) when a view is
        still live.  Returns whether the buffer was pooled."""
        try:
            self.release(buf)
        except BufferError:
            return False
        return True

    @contextmanager
    def borrowed(self) -> Iterator[bytearray]:
        buf = self.acquire()
        try:
            yield buf
        finally:
            self.release(buf)

    def __len__(self) -> int:
        return len(self._free)


#: the process-wide pool the RPC runtime encodes into
WIRE_BUFFERS = BufferPool()
