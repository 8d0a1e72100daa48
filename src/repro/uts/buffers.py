"""Pooled wire buffers.

The RPC hot path encodes every request and reply.  :class:`BufferPool`
hands out reusable ``bytearray`` buffers; codecs append into them via
``encode_into`` and the transport carries a ``memoryview`` slice of the
buffer through every hop unchanged, so a call materializes no copy of
its payload.

Buffers must have all exported ``memoryview``\\ s released before going
back to the pool — ``release`` clears the buffer, which raises
``BufferError`` if a view is still live, turning a use-after-release
into an immediate error instead of silent corruption.

Pools are **per-process**: a pooled ``bytearray`` must never be shared
across an OS process boundary (a forked child would pop copy-on-write
twins of the parent's buffers — same virtual addresses, divergent
contents, and any ``memoryview`` discipline the parent holds is
invisible to the child).  Every pool therefore remembers the pid that
owns it and silently resets its free list the first time it is touched
from a different process, so a fork/spawn worker always starts from an
empty pool (the process-sharded serve plane in :mod:`repro.serve.shards`
leans on this).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, List

__all__ = ["BufferPool", "WIRE_BUFFERS"]


class BufferPool:
    """A free list of reusable ``bytearray`` encode buffers.

    Thread-safe: caller threads may encode through one shared pool.
    Buffers keep their allocated capacity across uses (cleared, not
    reallocated), so steady-state operation does no per-call payload
    allocation at all.
    """

    def __init__(self) -> None:
        self._free: List[bytearray] = []
        self._lock = threading.Lock()
        #: owning process: a pool touched from a forked/spawned child
        #: resets itself rather than hand out the parent's buffers
        self._pid = os.getpid()

    def _ensure_owner(self) -> None:
        """Fork/spawn safety: the first touch from a process other than
        the one that created (or last reset) the pool drops the free
        list.  The inherited buffers are copy-on-write twins of the
        parent's — reusing them would let a child 'share' pooled memory
        across the process boundary by accident."""
        if os.getpid() != self._pid:
            self._free = []
            self._pid = os.getpid()

    def acquire(self) -> bytearray:
        """An empty buffer, reusing a previously released one if any."""
        with self._lock:
            self._ensure_owner()
            if self._free:
                return self._free.pop()
        return bytearray()

    def release(self, buf: bytearray) -> None:
        """Return a buffer to the pool.

        The caller must have released every ``memoryview`` exported over
        the buffer first; clearing raises ``BufferError`` otherwise."""
        del buf[:]
        with self._lock:
            self._ensure_owner()
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
        with self._lock:
            self._ensure_owner()
            return len(self._free)


#: the process-wide pool the RPC runtime encodes into
WIRE_BUFFERS = BufferPool()
