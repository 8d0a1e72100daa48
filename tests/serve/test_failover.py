"""Self-healing shard pool: supervision, typed death, seeded kills.

The failover contract has three layers, and these tests hold each one:

* **Supervision** — a dead worker raises :class:`ShardCrashed` (exit
  code, stderr tail, last frame kind) from ``send``/``recv`` instead of
  a hang or a bare ``BrokenPipeError``; a live-but-silent worker raises
  :class:`ShardTimeout` after the caller's ``recv_timeout_s``.

* **Deterministic recovery** — the acceptance differential: a 4-worker
  serve with seeded SIGKILLs at open, mid-wave, and close (under fork
  and spawn, pipe and shm) completes with per-session rows
  bitwise-identical to the uninterrupted inline run, and the
  ``ServeReport`` accounts every crash, redone session, and forfeited
  retry-budget lease exactly.

* **No leaks** — killing a worker must not strand ``/dev/shm``
  segments, stderr spools, or threads past ``pool.close()``.

* **One way back to a clean worker** — a serve that fails on a
  caller's pool replaces that serve's workers (``respawn``, the same
  primitive failover uses), so whatever it left behind — open episodes,
  unread replies, ``+shm`` ring references, a dead worker — the pool's
  next serve matches inline, its op store is untouched, and ``close()``
  still leaves nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.serve.shards as shards_mod
from repro.faults.plan import FaultPlan, KillShardWorker
from repro.serve import (
    ShardCrashed,
    SharedInstallation,
    ShardPool,
    ShardTimeout,
    build_kill_plan,
    serve_sessions,
    serve_sessions_sharded,
)
from repro.serve.demo import build_session_specs
from repro.serve.failover import KillSchedule, read_stderr_tail
from repro.serve.shards import assign_shards
from repro.serve.shm import shm_available

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory on this host"
)

#: a minimal, valid shard-open payload (no op seed, no lease)
_BARE_OPEN = {
    "shard": 0,
    "dedup": True,
    "budget": None,
    "op_seed": None,
}


def _rows(report):
    return [
        (r.name, r.digest, r.virtual_s, r.status, r.shed_reason,
         r.replayed, r.wait_s, r.deadline_met)
        for r in report.results
    ]


def _kill(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


def _shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@contextlib.contextmanager
def nothing_left_behind(pools):
    """On exit, every pool appended to ``pools`` inside the block must
    be closed and have left no ``/dev/shm`` segment, stderr spool, child
    process or thread — respawned workers' included."""
    segments, threads = _shm_segments(), set(threading.enumerate())
    yield
    assert _shm_segments() <= segments
    assert set(threading.enumerate()) <= threads
    assert not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("serve-shard")
    ]
    for pool in pools:
        assert not [p for p in pool._stderr_paths if os.path.exists(p)]


def _fail_once_mid_wave(pool, serve, kill=None):
    """Run ``serve()`` with the parent blowing up while wave replies
    are still in flight (workers hold open episodes and unread result
    frames) — after SIGKILLing worker ``kill``, if given."""

    def boom(wire):
        if kill is not None:
            _kill(pool._procs[kill])
        raise RuntimeError("injected mid-serve failure")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_mod, "result_from_wire", boom)
        with pytest.raises(RuntimeError, match="injected mid-serve"):
            serve()


class TestKillMatrix:
    """The acceptance differential: kills at every protocol point, under
    both start methods and both transports, with exact accounting."""

    def _specs_and_plan(self):
        # resilient specs so every busy shard carries a budget lease —
        # the kills must forfeit and re-issue them without double-spend
        specs = [
            dataclasses.replace(s, resilient=True)
            for s in build_session_specs(8, classes=4, points=2)
        ]
        buckets = assign_shards(list(enumerate(specs)), 4)
        busy = [w for w, bucket in enumerate(buckets) if bucket]
        assert len(busy) >= 3, "kill matrix needs three busy shards"
        plan = FaultPlan(
            seed=99,
            events=(
                KillShardWorker(at_s=0.0, shard=busy[0], phase="open"),
                KillShardWorker(at_s=1.0, shard=busy[1], phase="wave", wave=0),
                KillShardWorker(at_s=2.0, shard=busy[2], phase="close"),
            ),
        )
        return specs, plan, busy, buckets

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "transport", ["pipe", pytest.param("shm", marks=needs_shm)]
    )
    def test_killed_serve_is_bitwise_identical_to_inline(
        self, start_method, transport
    ):
        specs, plan, busy, buckets = self._specs_and_plan()
        base = serve_sessions(specs)
        with ShardPool(4, start_method=start_method, transport=transport) as pool:
            pool.arm_kills(plan)
            shard = serve_sessions_sharded(specs, pool)
        assert _rows(shard) == _rows(base)
        rows = {r["shard"]: r for r in shard.shard_rows}
        assert sum(r["crashes"] for r in rows.values()) == 3
        for w in busy[:3]:
            assert rows[w]["crashes"] == 1
            assert rows[w]["crash_exitcodes"] == [-signal.SIGKILL]
            assert rows[w]["forfeited_leases"] == 1
            assert rows[w]["forfeited_tokens"] > 0
            assert rows[w]["recovery_wall_s"] > 0
        # a kill at open or at wave 0 loses no completed sessions; a
        # kill at close redoes the whole episode (its close-time
        # counters and op export died with the worker)
        assert rows[busy[0]]["redone_sessions"] == 0
        assert rows[busy[1]]["redone_sessions"] == 0
        assert rows[busy[2]]["redone_sessions"] == len(buckets[busy[2]])
        for w, row in rows.items():
            if w not in busy[:3]:
                assert row["crashes"] == 0
        # every leased token came back: the replacement episode was
        # re-issued the forfeited grant, never a second withdrawal
        assert shard.retry_budget is not None
        assert shard.retry_budget["tokens"] == pytest.approx(10.0)
        assert shard.retry_budget["spent"] == 0

    def test_same_plan_replays_to_identical_accounting(self):
        specs, plan, _busy, _buckets = self._specs_and_plan()
        def killed():
            with ShardPool(4) as pool:
                pool.arm_kills(plan)
                return serve_sessions_sharded(specs, pool)

        a, b = killed(), killed()
        assert _rows(a) == _rows(b)
        assert [
            (r["shard"], r["crashes"], r["redone_sessions"])
            for r in a.shard_rows
        ] == [
            (r["shard"], r["crashes"], r["redone_sessions"])
            for r in b.shard_rows
        ]

    def test_unkilled_serve_reports_zero_crashes(self):
        specs = build_session_specs(4, classes=2, points=2)
        report = serve_sessions(specs, mode="shard", workers=2)
        assert all(r["crashes"] == 0 for r in report.shard_rows)
        assert all(r["redone_sessions"] == 0 for r in report.shard_rows)
        assert all("crash_exitcodes" not in r for r in report.shard_rows)


class TestSupervision:
    def test_dead_worker_raises_typed_crash_with_exitcode(self):
        pool = ShardPool(2, recv_timeout_s=30.0)
        try:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            _kill(pool._procs[0])
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-result")
            assert exc.value.shard == 0
            assert exc.value.exitcode == -signal.SIGKILL
            assert exc.value.last_kind == "shard-open"
            assert "killed by signal 9" in str(exc.value)
            assert "shard-open" in str(exc.value)
        finally:
            pool.close()

    @pytest.mark.parametrize("order", ["send-then-kill", "kill-then-send"])
    def test_recv_from_corpse_is_typed_in_both_kill_orders(self, order):
        """A worker SIGKILLed with our frame unread in its socket buffer
        resets the connection (``poll()`` readable, the read raises
        ``ConnectionResetError``); killed before the frame was written
        the pipe just reaches EOF.  Either way ``recv`` raises the typed
        autopsy, never a bare ``OSError``."""
        pool = ShardPool(1, recv_timeout_s=30.0)
        try:
            if order == "send-then-kill":
                pool.send(0, "shard-open", dict(_BARE_OPEN))
                _kill(pool._procs[0])
            else:
                _kill(pool._procs[0])
                try:
                    pool.send(0, "shard-open", dict(_BARE_OPEN))
                except ShardCrashed:
                    pass  # EPIPE already: send's own typed path
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-result")
            assert exc.value.shard == 0
            assert exc.value.exitcode == -signal.SIGKILL
        finally:
            pool.close()

    def test_send_to_corpse_raises_typed_crash(self):
        """The first send fails: nothing is buffered for a dead peer.

        ``_kill`` has reaped the worker, and a process's descriptors are
        released before it can be reaped, so the worker's end of the
        AF_UNIX socket pair is gone.  Releasing one end shuts the other
        down for sending, so a write fails with EPIPE before it queues
        anything.  A write could be buffered only while another process
        still held the worker's end: a later fork inherits it, but the
        pool closes its copy and worker 1 is the last one forked."""
        pool = ShardPool(2)
        try:
            _kill(pool._procs[1])
            with pytest.raises(ShardCrashed) as exc:
                pool.send(1, "shard-close", None)
            assert exc.value.shard == 1
            assert exc.value.exitcode == -signal.SIGKILL
        finally:
            pool.close()

    def test_recv_timeout_is_typed_and_bounded(self):
        pool = ShardPool(1, recv_timeout_s=0.3)
        try:
            t0 = time.monotonic()
            with pytest.raises(ShardTimeout) as exc:
                pool.recv(0, "shard-result")
            assert time.monotonic() - t0 < 10
            assert exc.value.shard == 0
            assert exc.value.timeout_s == 0.3
            assert pool._procs[0].is_alive(), "timeout means alive-but-silent"
        finally:
            pool.close()

    def test_pool_default_recv_timeout_applies(self):
        pool = ShardPool(1, recv_timeout_s=0.2)
        try:
            with pytest.raises(ShardTimeout, match="0.2"):
                pool.recv(0, "shard-result")
        finally:
            pool.close()

    def test_stderr_tail_surfaces_in_crash(self):
        pool = ShardPool(1, recv_timeout_s=10.0)
        try:
            with open(pool._stderr_paths[0], "a") as fh:
                fh.write("traceback: the worker's last words\n")
            _kill(pool._procs[0])
            with pytest.raises(ShardCrashed) as exc:
                pool.recv(0, "shard-closed")
            assert "last words" in exc.value.stderr_tail
            assert "worker stderr tail" in str(exc.value)
        finally:
            pool.close()

    def test_flushed_frames_drain_before_crash_is_raised(self):
        """A worker that replied and *then* died must not lose the
        reply: the pipe drains first, only then does recv autopsy."""
        pool = ShardPool(1, recv_timeout_s=10.0)
        try:
            pool.send(0, "shard-open", dict(_BARE_OPEN))
            pool.send(0, "shard-close", None)
            deadline = time.monotonic() + 10
            while not pool._conns[0].poll(0.05):
                assert time.monotonic() < deadline, "no close reply"
            _kill(pool._procs[0])
            reply = pool.recv(0, "shard-closed")
            assert reply["shard"] == 0
            with pytest.raises(ShardCrashed):
                pool.recv(0, "shard-closed")
        finally:
            pool.close()


class TestLeakRegression:
    @needs_shm
    def test_killed_worker_leaves_no_shm_segments_or_threads(self):
        specs = build_session_specs(4, classes=2, points=2)
        threads_before = {t.name for t in threading.enumerate()}
        pool = ShardPool(2, transport="shm")
        names = [
            r.name for r in pool._rings_out + pool._rings_in if r is not None
        ]
        assert names, "shm transport must actually create rings"
        serve_sessions_sharded(specs, pool)
        _kill(pool._procs[0])
        spools = list(pool._stderr_paths)
        pool.close()
        leaked = [
            n for n in names
            if os.path.exists(os.path.join("/dev/shm", n.lstrip("/")))
        ]
        assert not leaked
        assert {t.name for t in threading.enumerate()} == threads_before
        assert not [p for p in spools if os.path.exists(p)]
        assert all(not p.is_alive() for p in pool._procs)

    def test_pipe_pool_close_reaps_killed_worker(self):
        pool = ShardPool(2)
        _kill(pool._procs[1])
        spools = list(pool._stderr_paths)
        pool.close()
        assert all(not p.is_alive() for p in pool._procs)
        assert not [p for p in spools if os.path.exists(p)]

    def test_respawn_rebuilds_rings_on_fresh_segments(self):
        if not shm_available():
            pytest.skip("no POSIX shared memory on this host")
        pool = ShardPool(2, transport="shm")
        try:
            old = [pool._rings_out[0].name, pool._rings_in[0].name]
            _kill(pool._procs[0])
            pool.respawn(0)
            new = [pool._rings_out[0].name, pool._rings_in[0].name]
            assert set(old).isdisjoint(new)
            for n in old:
                assert not os.path.exists(
                    os.path.join("/dev/shm", n.lstrip("/"))
                ), "dead worker's ring must be unlinked on respawn"
        finally:
            pool.close()


def _os_resources():
    """What a pool can leak: shm segments, stderr spools, open file
    descriptors (pipe ends included) and child processes."""
    import glob
    import tempfile

    gc.collect()  # a reaped Process keeps its sentinel fds until collected
    return {
        "shm": _shm_segments(),
        "spools": set(glob.glob(os.path.join(tempfile.gettempdir(), "shard-*-stderr-*.log"))),
        "fds": len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0,
        "children": sorted(p.name for p in multiprocessing.active_children()),
    }


@pytest.mark.parametrize(
    "transport", ["pipe", pytest.param("shm", marks=needs_shm)]
)
class TestFailedSpawnReleasesWhatItMade:
    """``_spawn_worker`` makes two rings, a spool file and a pipe before
    the process starts; none is in a column until it runs, so if a step
    raises ``close()`` cannot find them — the spawn itself must release
    them (PR 17's recorded leftover)."""

    @pytest.fixture(autouse=True)
    def _tracker_is_running(self, transport):
        # the first pool of a process starts multiprocessing's resource
        # tracker (one more pipe fd, for good): not a leak of the test
        ShardPool(1, transport=transport).close()

    @staticmethod
    def _start_fails_after(monkeypatch, n):
        from multiprocessing.process import BaseProcess

        real, calls = BaseProcess.start, []

        def start(self):
            calls.append(self.name)
            if len(calls) > n:
                raise OSError("injected: cannot start a process")
            real(self)

        monkeypatch.setattr(BaseProcess, "start", start)

    def test_first_spawn(self, monkeypatch, transport):
        before = _os_resources()
        self._start_fails_after(monkeypatch, 1)
        with pytest.raises(OSError, match="injected"):
            ShardPool(2, transport=transport)  # worker 0 runs, worker 1 cannot
        assert _os_resources() == before

    def test_respawn(self, monkeypatch, transport):
        before = _os_resources()
        pool = ShardPool(2, transport=transport)
        live = _os_resources()
        with monkeypatch.context() as patch:
            self._start_fails_after(patch, 0)
            with pytest.raises(OSError, match="injected"):
                pool.respawn(0)
        after = _os_resources()
        # slot 0 lost its worker, pipe and rings and got nothing new
        assert after["spools"] == live["spools"]
        assert after["children"] == ["serve-shard-1"]
        assert after["fds"] < live["fds"]
        assert len(after["shm"] - before["shm"]) == (2 if transport == "shm" else 0)
        pool.close()  # over a slot whose pipe is closed and rings are gone
        assert all(not p.is_alive() for p in pool._procs)
        del pool  # and with it the reaped workers' sentinel fds
        assert _os_resources() == before


class TestRecoverEdges:
    """What a failed serve leaves a caller's pool in: replaced workers,
    an untouched op store, and a next serve that matches inline."""

    @needs_shm
    def test_recover_drains_shm_refs_in_flight(self):
        """shm_threshold=1 forces every result through the ring, so the
        mid-serve failure strands ``+shm`` reference frames on it — the
        rings go with the workers that are replaced, and the next serve
        over the same pool must still match inline."""
        specs = build_session_specs(6, classes=3, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2, transport="shm", shm_threshold=1) as pool:

            def serve():
                return serve_sessions_sharded(specs, pool)

            _fail_once_mid_wave(pool, serve)
            assert _rows(serve()) == base

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "transport", ["pipe", pytest.param("shm", marks=needs_shm)]
    )
    def test_pool_serves_inline_after_failed_serve(
        self, start_method, transport
    ):
        """The failure path, enumerated: a serve that raises mid-wave,
        with every payload by ring reference where there are rings and
        a worker already dead — recovery used to give up on that pool
        for good.  The next serve on it is bitwise the inline re-serve,
        the op store holds exactly what the earlier serve merged, and
        ``close()`` leaves nothing."""
        # two operating-line families (one per altitude), so both
        # shards are busy and both have points to merge
        specs = [
            dataclasses.replace(spec, altitude_m=3000.0 * (i % 2))
            for i, spec in enumerate(
                build_session_specs(4, classes=2, points=2, op_cache=True)
            )
        ]
        assert all(assign_shards(list(enumerate(specs)), 2))
        inst = SharedInstallation.standard()
        serve_sessions(specs, installation=inst, dedup=False)
        base = _rows(serve_sessions(specs, installation=inst, dedup=False))
        pools = []
        with nothing_left_behind(pools):
            with ShardPool(
                2, start_method=start_method, transport=transport,
                shm_threshold=1,
            ) as pool:
                pools.append(pool)

                def serve():
                    return serve_sessions_sharded(specs, pool, dedup=False)

                serve()
                merged = pool.op_store.export()
                assert merged, "solved points must reach the store"
                _fail_once_mid_wave(pool, serve, kill=0)
                assert pool.op_store.export() == merged
                assert _rows(serve()) == base

    def test_pool_serves_after_failure_with_close_in_flight(
        self, monkeypatch
    ):
        """A serve that fails at settle leaves one worker's
        ``shard-closed`` reply unread in its pipe and the other's
        episode open; neither may reach the next serve."""
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            real_recv = pool.recv

            def recv(shard, expect):
                if expect != "shard-closed":
                    return real_recv(shard, expect)
                deadline = time.monotonic() + 30
                while not pool._conns[shard].poll(0.05):
                    assert time.monotonic() < deadline, "no close reply"
                raise RuntimeError("injected at settle")

            with monkeypatch.context() as patch:
                patch.setattr(pool, "recv", recv)
                with pytest.raises(RuntimeError, match="injected at settle"):
                    serve_sessions_sharded(specs, pool)
            again = serve_sessions_sharded(specs, pool)
            assert _rows(again) == base

    def test_pool_serves_after_two_failed_serves_in_a_row(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            def serve():
                return serve_sessions_sharded(specs, pool)

            _fail_once_mid_wave(pool, serve)
            _fail_once_mid_wave(pool, serve)
            assert _rows(serve()) == base

    def test_failed_respawn_leaves_a_slot_the_next_serve_heals(
        self, monkeypatch
    ):
        """There is no broken-pool state: if replacing a worker itself
        fails, the failed serve still raises its own error, the slot
        stays dead, and the next serve meets it as a typed
        ``ShardCrashed`` that ordinary failover respawns."""
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            real_spawn = pool._spawn_worker

            def spawn(i):
                if i == 0:
                    raise OSError("injected: cannot start a process")
                real_spawn(i)

            def serve():
                return serve_sessions_sharded(specs, pool)

            with monkeypatch.context() as patch:
                patch.setattr(pool, "_spawn_worker", spawn)
                _fail_once_mid_wave(pool, serve)
            again = serve()
            assert _rows(again) == base
            assert [row["crashes"] for row in again.shard_rows] == [1, 0]

    def test_respawn_then_serve_matches_inline(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            _kill(pool._procs[0])
            pool.respawn(0)
            again = serve_sessions_sharded(specs, pool)
            assert _rows(again) == base


class TestKillSchedule:
    def test_take_matches_protocol_points_and_fires_once(self):
        sched = KillSchedule([
            KillShardWorker(at_s=0.0, shard=0, phase="open"),
            KillShardWorker(at_s=1.0, shard=1, phase="wave", wave=1),
        ])
        assert sched.take(1, "shard-serve") is None  # wave 0: no match
        assert sched.take(0, "shard-open").phase == "open"
        assert sched.take(0, "shard-open") is None  # at most once
        ev = sched.take(1, "shard-serve")  # wave ordinal 1 matches
        assert ev is not None and ev.wave == 1
        assert len(sched) == 0 and len(sched.fired) == 2
        assert sched.take(0, "shard-exit") is None  # not a kill point

    def test_build_kill_plan_is_a_pure_function_of_the_seed(self):
        a = build_kill_plan(4404, 4, kills=3)
        b = build_kill_plan(4404, 4, kills=3)
        assert a.events == b.events
        assert [e.phase for e in a.events] == ["open", "wave", "close"]
        assert all(0 <= e.shard < 4 for e in a.events)
        with pytest.raises(ValueError, match="kills"):
            build_kill_plan(1, 2, kills=-1)

    def test_kill_event_validates_phase_and_describes_itself(self):
        with pytest.raises(ValueError, match="phase"):
            KillShardWorker(at_s=0.0, shard=0, phase="bogus")
        text = KillShardWorker(at_s=0.0, shard=2, phase="close").describe()
        assert "SIGKILL" in text and "2" in text

    def test_read_stderr_tail_limits_and_tolerates_missing(self, tmp_path):
        spool = tmp_path / "spool.log"
        spool.write_bytes(b"x" * 100 + b"END")
        assert read_stderr_tail(str(spool), limit=8) == "xxxxxEND"
        assert read_stderr_tail(str(tmp_path / "missing.log")) == ""
        assert read_stderr_tail(None) == ""
