"""BufferPool fork/spawn safety (PR 8, satellite 2).

Pools are per-process: a worker forked while the parent's pool holds
released buffers must start from an *empty* free list — never observing
(or mutating) the parent's pooled bytearrays — and the parent's pool
must be untouched by anything the child did.  A forked child is emptied
by the module's ``os.register_at_fork`` hook (the pool asks for no pid
on the call path); a spawned child imports the module afresh.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.uts.buffers import BufferPool, WIRE_BUFFERS


def _child_probe(conn) -> None:
    """Runs in the fork: report what the pool looks like from here."""
    pool_len = len(WIRE_BUFFERS)
    buf = WIRE_BUFFERS.acquire()
    conn.send(
        {
            "free_len_on_entry": pool_len,
            "acquired_len": len(buf),
            "acquired_id": id(buf),
        }
    )
    conn.close()


class TestForkSafety:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_starts_with_an_empty_pool(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        marked = [WIRE_BUFFERS.acquire() for _ in range(3)]
        for buf in marked:
            buf += b"parent-marker"
            WIRE_BUFFERS.release(buf)
        assert len(WIRE_BUFFERS) >= 3
        ctx = multiprocessing.get_context(method)
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_child_probe, args=(child_conn,))
        proc.start()
        child_conn.close()
        assert parent_conn.poll(60), f"{method} child never reported"
        seen = parent_conn.recv()
        proc.join(timeout=10)
        assert proc.exitcode == 0
        assert (seen["free_len_on_entry"], seen["acquired_len"]) == (0, 0)
        assert len(WIRE_BUFFERS) >= 3, "the parent's pool is its own"

    def test_forked_child_starts_with_an_empty_pool(self):
        """Seed the parent's process-wide pool with marked buffers, fork,
        and assert the child sees none of them: its free list is empty
        and its first acquire is a fresh empty buffer, not one of the
        parent's marked ones (parent ids are held alive here, so an id
        collision cannot fake a pass)."""
        marked = []
        for _ in range(3):
            buf = WIRE_BUFFERS.acquire()
            buf += b"parent-marker"
            marked.append(buf)
        for buf in marked:
            # keep the objects alive but poolable: release() clears them
            WIRE_BUFFERS.release(buf)
        assert len(WIRE_BUFFERS) >= 3
        parent_ids = {id(b) for b in marked}

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_child_probe, args=(child_conn,))
        proc.start()
        child_conn.close()
        seen = parent_conn.recv()
        proc.join(timeout=10)

        assert seen["free_len_on_entry"] == 0
        assert seen["acquired_len"] == 0
        # fork keeps the marked buffers alive in the child too (they are
        # referenced from this very frame), so a fresh allocation there
        # cannot land on one of their addresses — identity inequality is
        # sound, not an address-reuse coin flip
        assert seen["acquired_id"] not in parent_ids

    def test_parent_pool_survives_child_activity(self):
        pool = BufferPool()
        a = pool.acquire()
        pool.release(a)
        before = len(pool)

        ctx = multiprocessing.get_context("fork")

        def _spin(n):  # pragma: no cover - runs in the child
            for _ in range(n):
                pool.release(pool.acquire())

        proc = ctx.Process(target=_spin, args=(5,))
        proc.start()
        proc.join(timeout=10)
        assert len(pool) == before

    def test_reset_happens_once_then_pool_works_normally(self):
        """After the at-fork reset, the child's pool must behave like
        any fresh pool: release/acquire round-trips reuse buffers."""
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def _roundtrip(conn):  # pragma: no cover - runs in the child
            b1 = WIRE_BUFFERS.acquire()
            b1 += b"x"
            WIRE_BUFFERS.release(b1)
            b2 = WIRE_BUFFERS.acquire()
            conn.send({"reused": b2 is b1, "clean": len(b2) == 0})
            conn.close()

        proc = ctx.Process(target=_roundtrip, args=(child_conn,))
        proc.start()
        child_conn.close()
        seen = parent_conn.recv()
        proc.join(timeout=10)
        assert seen == {"reused": True, "clean": True}
