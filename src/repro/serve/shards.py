"""Process-sharded serving: scale ``repro.serve`` across cores.

The paper's deployment model is one Schooner Server per machine, with
the simulation spread over heterogeneous hosts.  The in-process serve
plane (:mod:`repro.serve.scheduler`) multiplexes every session on one
interpreter, so its ~5x speedup comes from virtual-time scheduling, not
cores — wall-clock ``points_per_s`` is GIL-bound.  This module is the
Server-per-machine analogue for the serving layer itself: a
:class:`ShardPool` spawns N OS worker processes, each holding its own
:class:`~repro.serve.installation.SharedInstallation` replica and
virtual-time scheduler, and sessions are dealt across them.

Four disciplines make sharding *exact* rather than approximate:

* **Deterministic placement by family.**  Sessions hash to a shard by
  their op-point-cache family (or workload key when they carry none),
  so every pair of sessions that could interact — workload-cache
  twins, op-point-cache operating-line families —
  lands on the same shard.  A session's trace stream is a pure function
  of its spec plus those interactions, so per-session digests and
  virtual times are bitwise-identical to inline serving (the
  differential tests in tests/serve/test_shards.py hold the plane to
  that).  Placement is rounded out by a work-stealing rebalance: whole
  family groups migrate from the most-loaded shard to any shard the
  hash left idle, before anything runs.

* **One wire vocabulary crosses the process boundary** — over pipes
  or shared memory (:mod:`repro.serve.shm`).  Everything travels as
  struct-packed frames: the 32-byte RPC header fronting a typed binary
  payload (float arrays as raw IEEE-754 bytes, never digit strings).
  That codec is the only byte format (the operating-point store
  crosses as ordinary payload records) and the ``SessionSpec`` /
  ``SessionResult`` dataclasses are the only field lists (the wire
  dicts come from :func:`dataclasses.fields`).  With
  ``transport="shm"`` (or ``"auto"`` where available) payloads above a
  size threshold are written **once** into a per-worker SPSC ring in a
  ``multiprocessing.shared_memory`` segment and cross the pipe as an
  ``(offset, length)`` reference; the pipe stays the control/wakeup
  channel and the fallback.  Live runtime objects never cross: anything
  holding interpreter state (a ``Transport``, a ``SharedInstallation``)
  raises the typed :class:`~repro.serve.shm.NotShardSafe` instead of an
  opaque pickle traceback.

* **Admission runs the same core at the parent.**  Workers run with no
  admission bound of their own; the parent holds the single global
  timeline and parked queue and drives
  :class:`~repro.serve.admission.AdmissionCore` — the one
  implementation inline serving runs — through an executor whose
  ``run`` is a wave: the started sessions go to their families' shards
  with the wait pre-charged (so in-session deadlines, and hence traces,
  match inline bitwise) and come back with the one thing the timeline
  needs from each, its ``virtual_s``.  Slots therefore free at inline's
  instants and *parked-deadline expiry* is judged there with the same
  reason string, because it is the same code.  The core asks only when
  the next event cannot be decided without a departure, so an unbounded
  batch is exactly one wave per shard, at full parallelism; each worker
  runs its share through the same core, in the order the parent
  started it.

* **The op-point store spans shards.**  The installation-wide
  :class:`~repro.serve.opcache.OpPointCache` flows both ways: each
  worker's episode cache is pre-seeded from the pool's store at open,
  and the points it solves come back as a delta merged into the store
  at close (never by a serve that failed) — so a re-serve, or a family
  rebalanced onto a different shard, starts warm instead of re-solving
  its points on every worker.  The retry budget does not
  span shards: a worker's sessions draw on their episode
  installation's own :class:`~repro.resilience.budget.RetryBudget`, as
  inline sessions do on theirs.  No shard session can spend a retry
  token — fault plans are refused at :func:`spec_to_wire`, and a
  ``CallTimeout`` needs a down host, a partition or a fault filter,
  which only a fault plan brings.

A serve runs on the pool it is handed, and every process knob (worker
count, start method, transport, op store, receive timeout, armed kills)
is set on the :class:`ShardPool` — the paper's Servers, started once per
machine and then called.  There is one way back to a clean worker,
:meth:`ShardPool.respawn` (the paper's rule for a failed line: terminate
it, start it again): failover replaces a dead worker with it, and a
serve that fails replaces every worker it touched before re-raising.

Known (and deliberate) divergence from inline: workload-cache
*counters* can differ by probe-vs-traffic accounting (a parked
session's replay is a counted hit in a worker, a non-counting probe
inline).  Digests, statuses, shed sets, waits and replay flags are
identical in every tested mix.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
import traceback
from contextlib import ExitStack
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from ..faults.plan import FaultPlan
from .admission import AdmissionCore, AdmissionPolicy, InlineExecutor
from .failover import (
    KillSchedule,
    ShardCrashed,
    ShardTimeout,
    read_stderr_tail,
)
from .installation import SharedInstallation
from .opcache import OpPointCache
from .scheduler import ServeReport, _CallTally
from .session import SessionContext, SessionResult, SessionSpec
from .shm import (
    DEFAULT_RING_BYTES,
    SHM_THRESHOLD,
    NotShardSafe,
    ShardProtocolError,
    ShmRing,
    decode_payload,
    encode_payload_into,
    recv_frame,
    resolve_transport,
    send_frame,
)

__all__ = [
    "NotShardSafe",
    "ShardProtocolError",
    "ShardCrashed",
    "ShardTimeout",
    "ShardPool",
    "serve_sessions_sharded",
    "spec_to_wire",
    "spec_from_wire",
    "result_to_wire",
    "result_from_wire",
    "assert_shard_safe",
    "shard_family",
    "assign_shards",
]


#: types that must never cross the process boundary;
#: resolved lazily so importing shards stays cheap
def _live_types() -> tuple:
    from ..network.transport import Transport
    from ..schooner.runtime import SchoonerEnvironment

    return (Transport, SharedInstallation, SchoonerEnvironment)


def assert_shard_safe(obj, path: str = "payload") -> None:
    """Walk a payload tree and raise :class:`NotShardSafe` (naming the
    offending object and where it sat) if any live runtime object is
    present.  Containers recurse; wire scalars (including ``bytes`` —
    the op store's raw float arrays, the pre-encoded seed) pass."""
    if isinstance(obj, _live_types()):
        raise NotShardSafe(
            f"live {type(obj).__name__} at {path} cannot cross a process "
            f"boundary: shard workers hold their own installation replica — "
            f"ship SessionSpec/SessionResult wire frames instead "
            f"(see repro.serve.shards)"
        )
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_shard_safe(k, f"{path}[{k!r}] (key)")
            assert_shard_safe(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            assert_shard_safe(v, f"{path}[{i}]")
    elif obj is not None and not isinstance(
        obj, (str, int, float, bool, bytes, bytearray)
    ):
        raise NotShardSafe(
            f"{type(obj).__name__} at {path} is not shard-serializable; "
            f"shard frames carry wire scalars and containers only"
        )


# --------------------------------------------------------------------------
# spec / result codecs
# --------------------------------------------------------------------------

#: the dataclasses are the field lists: wire dicts carry every field, in
#: declaration order, except the fault plan (refused, never shipped)
_SPEC_FIELDS = [f.name for f in fields(SessionSpec) if f.name != "fault_plan"]
_RESULT_FIELDS = [f.name for f in fields(SessionResult)]


def spec_to_wire(spec: SessionSpec) -> dict:
    """A :class:`SessionSpec` as a shard-safe wire dict.

    Fault-plan sessions are refused: a :class:`~repro.faults.FaultPlan`
    has no wire form."""
    if spec.fault_plan is not None:
        raise NotShardSafe(
            f"session {spec.name!r} carries a fault plan, which has no wire "
            f"form and cannot cross a process boundary — serve it with "
            f"mode=\"inline\""
        )
    wire = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    assert_shard_safe(wire, f"spec {spec.name!r}")
    return wire


def spec_from_wire(wire: dict) -> SessionSpec:
    # the codec has one sequence type: the points ladder comes back a list
    return SessionSpec(**{**wire, "points": tuple(wire["points"])})


def result_to_wire(r: SessionResult) -> dict:
    return {name: getattr(r, name) for name in _RESULT_FIELDS}


def result_from_wire(wire: dict) -> SessionResult:
    return SessionResult(
        **{**wire, "fault_log": [tuple(entry) for entry in wire["fault_log"]]}
    )


# --------------------------------------------------------------------------
# placement: deterministic family hashing + work-stealing rebalance
# --------------------------------------------------------------------------

def shard_family(spec: SessionSpec) -> str:
    """The key sessions co-locate by: the op-point-cache operating-line
    family when the spec opts in (cross-workload sharing must stay
    intra-shard for op-cache locality), else the workload key (so
    dedup twins stay intra-shard)."""
    return spec.op_family() or f"wk:{spec.workload_key()}"


def assign_shards(
    indexed: Sequence[Tuple[int, SessionSpec]], workers: int
) -> List[List[Tuple[int, SessionSpec]]]:
    """Deal ``(seq, spec)`` pairs into ``workers`` buckets.

    Whole family groups hash to a shard (crc32 of the family key — a
    stable hash, identical across interpreters and runs), then the
    work-stealing pass rebalances: while moving one family group from
    the most-loaded shard to the least-loaded strictly lowers the pair's
    peak, the group that lowers it most migrates — which both fills
    shards the hash left idle and splits hash-collision pileups.
    Deterministic: loads, donor/recipient choice, and the migrated
    group are all totally ordered."""
    groups: Dict[str, List[Tuple[int, SessionSpec]]] = {}
    for seq, spec in indexed:
        groups.setdefault(shard_family(spec), []).append((seq, spec))

    assign: List[List[str]] = [[] for _ in range(workers)]
    for fam in sorted(groups):
        assign[crc32(fam.encode()) % workers].append(fam)

    def shard_load(w: int) -> int:
        return sum(len(groups[f]) for f in assign[w])

    while True:
        loads = [shard_load(w) for w in range(workers)]
        donor = max(range(workers), key=lambda w: (loads[w], -w))
        recipient = min(range(workers), key=lambda w: (loads[w], w))
        moves = [
            (max(loads[donor] - len(groups[f]), loads[recipient] + len(groups[f])), f)
            for f in assign[donor]
        ]
        best = min(moves, default=None, key=lambda m: m)
        if best is None or best[0] >= loads[donor]:
            break  # no single-group move lowers the peak
        assign[donor].remove(best[1])
        assign[recipient].append(best[1])

    out: List[List[Tuple[int, SessionSpec]]] = []
    for w in range(workers):
        bucket = [pair for fam in assign[w] for pair in groups[fam]]
        bucket.sort(key=lambda p: p[0])  # preserve admission order in-shard
        out.append(bucket)
    return out


# --------------------------------------------------------------------------
# the worker process (spawn-safe: module-level entrypoint, no closures)
# --------------------------------------------------------------------------

def _open_episode(payload: dict) -> dict:
    """Begin one serve episode: a persistent installation replica that
    lives across this episode's waves (so the workload and op-point
    caches accumulate exactly as inline's single installation does),
    pre-seeded from the installation-wide op store."""
    installation = SharedInstallation.standard()
    seed = payload.get("op_seed")
    if seed:  # encoded once by the parent for every worker of the serve
        installation.op_cache.preload(decode_payload(seed))
    return {
        "installation": installation,
        # what the seed already held: the close-time export ships only
        # the points this worker solved, not the seed it was handed back
        # (minus seed entries this worker cold-upgrades — see close)
        "preloaded": installation.op_cache.key_set(),
        "dedup": payload["dedup"],
        "live": 0,
        "replayed": 0,
        "wall_s": 0.0,
    }


def _serve_wave(shard_id: int, episode: Optional[dict], payload: dict) -> dict:
    """Serve one wave of sessions on the episode installation: the
    admission core with no bound of its own, over sessions carrying the
    parent's pre-charged queue waits (applied before any deadline is
    judged, exactly as the parent's queue charged them).  The wave is in
    the parent's start order, which at one instant is rank order — the
    order this core offers it in.  Returns the wire report."""
    if episode is None:
        raise ShardProtocolError(
            f"shard {shard_id}: shard-serve before shard-open"
        )
    installation, dedup = episode["installation"], episode["dedup"]
    tally = _CallTally(installation)
    core = AdmissionCore(installation, None, dedup)
    for wire, wait in zip(payload["specs"], payload["waits"]):
        core.offer(0.0, spec_from_wire(wire)).wait_s = float(wait)
    core.run(InlineExecutor(installation))
    report = tally.report(core.contexts, parked=0)
    episode["live"] += report.live
    episode["replayed"] += report.replayed
    episode["wall_s"] += report.wall_s
    return {
        "shard": shard_id,
        "seqs": payload["seqs"],
        "results": [result_to_wire(r) for r in report.results],
        "wall_s": report.wall_s,
    }


def _close_episode(shard_id: int, episode: Optional[dict]) -> dict:
    """Settle one episode: counters, op-cache stats, and the delta of
    operating points this worker solved (export records, for the parent
    to merge into the installation-wide store)."""
    if episode is None:
        raise ShardProtocolError(
            f"shard {shard_id}: shard-close before shard-open"
        )
    inst = episode["installation"]
    oc = inst.op_cache
    return {
        "shard": shard_id,
        "live": episode["live"],
        "replayed": episode["replayed"],
        "wall_s": episode["wall_s"],
        "cache_hits": inst.cache.hits,
        "cache_misses": inst.cache.misses,
        "op_exact": oc.exact_hits,
        "op_near": oc.near_hits,
        "op_miss": oc.misses,
        "op_stats": oc.stats(),
        # the delta: points this worker solved, plus seeded warm-derived
        # entries it cold-upgraded (those were rewritten bitwise-canonical
        # and must flow back or the merged store's tier is not monotone)
        "op_export": oc.export(
            exclude=episode["preloaded"] - oc.cold_upgraded()
        ),
    }


def _redirect_stderr(path: str) -> None:
    """Point the worker's fd 2 at its stderr spool file, so last words
    (uncaught tracebacks, allocator complaints) survive the process —
    the parent reads the tail into :class:`ShardCrashed` after a death.
    Best-effort: a worker that cannot spool still serves."""
    import sys

    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
        try:
            sys.stderr.flush()
        except (OSError, ValueError):
            pass
        os.dup2(fd, 2)
        os.close(fd)
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    except OSError:  # pragma: no cover - spool dir unwritable
        pass


def _shard_worker_main(
    conn,
    shard_id: int,
    ring_in_name: Optional[str] = None,
    ring_out_name: Optional[str] = None,
    shm_threshold: int = SHM_THRESHOLD,
    stderr_path: Optional[str] = None,
) -> None:
    """One shard worker: episodes of waves until the parent says exit.
    Importable at module level so ``spawn`` start methods (fresh
    interpreter, re-import by name) work as well as ``fork``."""
    if stderr_path:
        _redirect_stderr(stderr_path)
    ring_in = ShmRing.attach(ring_in_name) if ring_in_name else None
    ring_out = ShmRing.attach(ring_out_name) if ring_out_name else None
    me = f"shard-{shard_id}"
    episode: Optional[dict] = None
    try:
        while True:
            try:
                kind, payload = recv_frame(conn, ring=ring_in)
            except (EOFError, ConnectionResetError):
                # the parent closed its end, or died with a frame of
                # ours unread (a reset, not an EOF): exit either way
                break
            if kind == "shard-exit":
                break
            try:
                if kind == "shard-open":
                    episode = _open_episode(payload)
                    continue
                if kind == "shard-serve":
                    reply = "shard-result", _serve_wave(shard_id, episode, payload)
                elif kind == "shard-close":
                    reply = "shard-closed", _close_episode(shard_id, episode)
                    episode = None
                else:
                    raise ShardProtocolError(f"{me}: unexpected frame {kind!r}")
                send_frame(conn, *reply, src=me, dst="parent",
                           ring=ring_out, threshold=shm_threshold)
            except Exception:
                send_frame(
                    conn, "shard-error",
                    {"shard": shard_id, "error": traceback.format_exc()},
                    src=me, dst="parent",
                )
    finally:
        conn.close()
        for ring in (ring_in, ring_out):
            if ring is not None:
                ring.close()


def _default_start_method() -> str:
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class ShardPool:
    """N shard worker processes behind framed pipes (and, with
    ``transport="shm"``, per-worker shared-memory payload rings).

    Workers are spawned once and reused across serve calls (a
    long-running server's pool).  The pool also owns the
    **installation-wide op-point store** (``op_store``): every serve
    call seeds worker episodes from it and merges their solved points
    back, so repeated serves through one pool compound the PR 6 cache
    wins across processes.  Use as a context manager, or :meth:`close`
    explicitly — close sends every worker an exit frame, joins it, and
    unlinks the shared-memory rings even if a worker already died.
    A worker that died, or that a failed serve left mid-episode, is a
    slot to :meth:`respawn`: the pool itself is only open or closed.

    The pool is *supervised*: :meth:`recv` polls the worker sentinel
    while it waits, so a dead worker raises a typed
    :class:`~repro.serve.failover.ShardCrashed` (exit code + stderr
    tail + last frame kind) instead of blocking forever, and
    ``recv_timeout_s`` bounds the wait on a live-but-wedged worker with
    :class:`~repro.serve.failover.ShardTimeout`.  :meth:`respawn`
    replaces a dead worker in place — reap, unlink and rebuild its shm
    rings, fresh pipe and process — which is what lets
    ``serve_sessions_sharded`` redo the lost episode instead of losing
    the serve.  :meth:`arm_kills` arms seeded
    :class:`~repro.faults.plan.KillShardWorker` chaos events (SIGKILL
    delivered immediately before the matching protocol frame is sent).
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        transport: str = "auto",
        shm_threshold: int = SHM_THRESHOLD,
        op_store: Optional[OpPointCache] = None,
        recv_timeout_s: Optional[float] = None,
    ):
        import multiprocessing

        if workers < 1:
            raise ValueError(f"ShardPool needs >= 1 worker, got {workers!r}")
        self.workers = workers
        self.start_method = start_method or _default_start_method()
        self.transport = resolve_transport(transport)
        self.shm_threshold = shm_threshold
        self.op_store = op_store if op_store is not None else OpPointCache()
        self.recv_timeout_s = recv_timeout_s
        self._ctx = multiprocessing.get_context(self.start_method)
        self.arm_kills(None)
        self._procs = []
        self._conns = []
        #: parent->worker payload rings (parent writes), worker->parent
        #: rings (parent reads); None per worker under pipe transport
        self._rings_out: List[Optional[ShmRing]] = []
        self._rings_in: List[Optional[ShmRing]] = []
        #: per-worker stderr spool files (a corpse's last words) and the
        #: last frame kind seen on each worker's stream
        self._stderr_paths: List[str] = []
        self._last_kind: List[Optional[str]] = []
        self._closed = False
        try:
            for i in range(workers):
                self._spawn_worker(i)
        except Exception:
            self.close()
            raise

    def _spawn_worker(self, i: int) -> None:
        """Create worker ``i``'s rings, pipe, stderr spool, and process,
        in slot ``i``: a new slot, or over the slot's previous (dead,
        already-reaped) worker, whose spool file is kept.

        Nothing made here is in a column until the worker runs, so
        :meth:`close` could not find it: if any step raises, what the
        earlier steps made is released in reverse order on the way out."""
        with ExitStack() as undo:
            ring_out = ring_in = None
            if self.transport == "shm":
                ring_out = ShmRing.create(DEFAULT_RING_BYTES)
                undo.callback(ring_out.close)  # owner: unlinks
                ring_in = ShmRing.create(DEFAULT_RING_BYTES)
                undo.callback(ring_in.close)
            if i < len(self._stderr_paths):
                stderr_path = self._stderr_paths[i]
            else:
                fd, stderr_path = tempfile.mkstemp(
                    prefix=f"shard-{i}-stderr-", suffix=".log"
                )
                undo.callback(os.unlink, stderr_path)
                os.close(fd)
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            undo.callback(parent_conn.close)
            undo.callback(child_conn.close)
            proc = self._ctx.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    i,
                    ring_out.name if ring_out is not None else None,
                    ring_in.name if ring_in is not None else None,
                    self.shm_threshold,
                    stderr_path,
                ),
                name=f"serve-shard-{i}",
                daemon=True,
            )
            proc.start()
            undo.pop_all()  # the worker runs: the columns own it all now
        child_conn.close()
        for column, value in (
            (self._procs, proc), (self._conns, parent_conn),
            (self._rings_out, ring_out), (self._rings_in, ring_in),
            (self._stderr_paths, stderr_path), (self._last_kind, None),
        ):
            column[i:i + 1] = [value]  # slot i, appended or replaced

    def arm_kills(self, plan: Optional[FaultPlan]) -> None:
        """Arm (or with ``None``, disarm) a seeded worker-kill schedule;
        :meth:`send` consults it before every episode-protocol frame."""
        self._kills = KillSchedule(plan.events) if plan is not None else None

    def _crashed(self, shard: int) -> ShardCrashed:
        """The typed autopsy of a dead worker: reap it, then package its
        exit code, stderr tail, and the last frame kind seen."""
        proc = self._procs[shard]
        proc.join(timeout=5)
        return ShardCrashed(
            shard,
            exitcode=proc.exitcode,
            last_kind=self._last_kind[shard],
            stderr_tail=read_stderr_tail(self._stderr_paths[shard]),
        )

    def _execute_kill(self, shard: int) -> None:
        """Deliver a scheduled SIGKILL and wait for the corpse, so the
        frame about to be sent provably never reaches the worker."""
        proc = self._procs[shard]
        if proc.is_alive() and proc.pid:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
        proc.join(timeout=10)

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("ShardPool is closed")

    def send(self, shard: int, kind: str, payload) -> None:
        """Frame one control message to a worker (large payloads ride
        the shard's shared-memory ring under shm transport).

        Consults the armed kill schedule first — a matching chaos event
        SIGKILLs the worker *before* the frame goes out, so the frame
        deterministically never arrives.  A send to a dead worker (the
        pipe's read end is gone) raises the typed
        :class:`~repro.serve.failover.ShardCrashed` instead of a bare
        ``BrokenPipeError``."""
        self._check_usable()
        if self._kills is not None and self._kills.take(shard, kind) is not None:
            self._execute_kill(shard)
        try:
            send_frame(
                self._conns[shard], kind, payload,
                src="parent", dst=f"shard-{shard}",
                ring=self._rings_out[shard],
                threshold=self.shm_threshold,
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise self._crashed(shard) from None
        self._last_kind[shard] = kind

    #: sentinel poll cadence while waiting on a worker frame
    _POLL_S = 0.05

    def recv(self, shard: int, expect: str) -> Optional[dict]:
        """Collect one reply from a worker, re-raising worker-side
        failures with their tracebacks.

        Supervised: while waiting, the worker's sentinel is polled so a
        death raises :class:`~repro.serve.failover.ShardCrashed` (exit
        code, stderr tail, last frame kind) promptly instead of
        blocking forever.  The pool's ``recv_timeout_s`` (``None`` =
        unbounded) caps the wait on a live worker, raising
        :class:`~repro.serve.failover.ShardTimeout`."""
        self._check_usable()
        timeout = self.recv_timeout_s
        conn, proc = self._conns[shard], self._procs[shard]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.poll(0):
            # no frame yet: check the sentinel, then nap-poll.  A dead
            # worker may still have flushed frames in the pipe — those
            # drain first; only a dead worker with an empty pipe is a
            # crash at this recv.
            if not proc.is_alive() and not conn.poll(0):
                raise self._crashed(shard)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardTimeout(
                        shard, timeout, last_kind=self._last_kind[shard]
                    )
                if conn.poll(min(self._POLL_S, remaining)):
                    break
            elif conn.poll(self._POLL_S):
                break
        try:
            kind, reply = recv_frame(conn, ring=self._rings_in[shard])
        except (EOFError, OSError):
            # EOF is a worker that closed its end; a worker SIGKILLed
            # with a frame of ours still unread in its socket buffer
            # resets the connection instead (poll() reports readable,
            # the read raises ConnectionResetError)
            raise self._crashed(shard) from None
        self._last_kind[shard] = kind
        if kind == "shard-error":
            raise RuntimeError(
                f"shard {shard} failed:\n{reply['error'] if reply else '?'}"
            )
        if kind != expect:
            raise ShardProtocolError(
                f"shard {shard}: expected {expect}, got {kind}"
            )
        return reply

    def respawn(self, shard: int) -> None:
        """Replace worker ``shard`` in place after a death (or to
        recycle a wedged worker, which is terminated first).

        Reaps the corpse, closes its pipe, **unlinks and rebuilds its
        shared-memory rings** (a dead worker may have left unconsumed
        frames and a desynced cursor on them — the replacement starts
        from offset 0 on fresh segments), truncates its stderr spool,
        and starts a fresh process with the same shard id.  The caller
        owns re-opening the episode and redoing lost work
        (``serve_sessions_sharded`` replays the dead episode's frames
        verbatim).  It is also the one way back to a clean worker
        after a failed serve: an open episode, unread frames and
        ``+shm`` references go with the old process, pipe and segments."""
        self._check_usable()
        self._stop(self._procs[shard], grace_s=0)
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass
        for rings in (self._rings_out, self._rings_in):
            if rings[shard] is not None:
                rings[shard].close()  # owner: unlinks the dead segment
                rings[shard] = None
        try:
            open(self._stderr_paths[shard], "w").close()
        except OSError:  # pragma: no cover - spool vanished
            pass
        self._spawn_worker(shard)

    @staticmethod
    def _stop(proc, grace_s: float) -> None:
        """Reap ``proc``, giving it ``grace_s`` to exit by itself before
        escalating terminate -> kill for the truly wedged."""
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join(timeout=5)

    def close(self) -> None:
        """Shut the pool down, releasing every OS resource it owns.

        Robust against abnormal worker exits: a terminated or SIGKILLed
        worker's pipe raises on the exit frame (swallowed), its corpse
        is reaped (escalating terminate -> kill for the truly wedged),
        and the shared-memory rings are unlinked *unconditionally* —
        per step, under its own guard, so one worker's failure cannot
        leak another's segments.  Stderr spools are removed last."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                send_frame(conn, "shard-exit", None, src="parent", dst="shard")
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            try:
                self._stop(proc, grace_s=10)
            except Exception:  # pragma: no cover - reap must not block teardown
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        # unlink the rings last — workers have exited (or been killed),
        # so the owner's unlink cannot strand a reader; each ring under
        # its own guard so one failure cannot leak the rest
        for ring in self._rings_out + self._rings_in:
            if ring is not None:
                try:
                    ring.close()
                except Exception:  # pragma: no cover - defensive
                    pass
        for path in self._stderr_paths:
            try:
                os.unlink(path)
            except OSError:
                pass

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _ShardExecutor:
    """The shard parent as :class:`AdmissionCore`'s executor: sessions
    execute in worker processes, in one episode per busy shard.

    Building it opens every busy shard's episode, seeding each worker's
    op-point cache from the pool's store.  ``run`` is one wave: the
    started sessions, plus the replays resolved since the last wave
    (replay content is timing-independent), grouped per shard in start
    order, sent, and collected into :attr:`results`.  ``replay``
    answers from what earlier waves recorded.  :meth:`close` settles
    every episode into :attr:`closes`.

    **Failover**: a worker that dies at any of those frames (typed
    :class:`~repro.serve.failover.ShardCrashed` from the supervised
    pool), or outlives the pool's ``recv_timeout_s``, is respawned —
    fresh process, rebuilt shm rings — and its episode is redone:
    re-opened from the identical open payload, every wave it had served
    replayed verbatim, and the frame in flight re-sent.  Sessions are
    pure functions of their specs and op-cache exact hits are
    bitwise-equal to cold solves, so the redone results are bitwise the
    lost ones; :meth:`crash_row` accounts the disruption per shard."""

    def __init__(
        self,
        pool: ShardPool,
        dedup: bool,
        wires: Dict[int, dict],
        shard_of: Dict[int, int],
        active: Sequence[int],
        op_cache: bool,
    ):
        self.pool = pool
        self.wires = wires
        self.shard_of = shard_of
        #: each served session's result, by seq
        self.results: Dict[int, SessionResult] = {}
        #: workload keys a worker's cache now holds a record for (only
        #: clean runs are cached, mirroring ``SessionContext._finalize``)
        self.record_keys: set = set()
        #: sessions resolved to a replay: they ride the next wave with
        #: their charged wait
        self.pending_replays: List[SessionContext] = []
        #: each busy shard's settle, once :meth:`close` collected it
        self.closes: Dict[int, dict] = {}
        # what redoing a dead shard's episode takes besides its open
        # payload: the waves it served, and the frame awaiting a reply
        self.history: Dict[int, List[dict]] = {w: [] for w in active}
        self.in_flight: Dict[int, Tuple[str, Optional[dict]]] = {}
        self.crash_rows: Dict[int, dict] = {
            w: {"crashes": 0, "redone_sessions": 0, "recovery_wall_s": 0.0,
                "crash_exitcodes": []}
            for w in range(pool.workers)
        }
        # a runaway backstop, not a budget: every armed kill is allowed
        # to fire, plus headroom for genuine deaths — past it, the
        # serve stops healing and raises the last crash
        armed = pool._kills
        self.recovery_cap = 4 + (len(armed.fired) + len(armed) if armed else 0)
        self.total_crashes = 0

        # the parent cannot compute full cache families (the engine-deck
        # digest is resolved only at session setup), so every worker
        # receives the whole store (preload is idempotent and
        # first-write-wins), encoded once here and nested in each open
        # payload as bytes
        op_seed: Optional[bytearray] = None
        if op_cache and len(pool.op_store):
            op_seed = bytearray()
            encode_payload_into(op_seed, pool.op_store.export())
        self.open_payloads = {
            w: {"shard": w, "dedup": dedup, "op_seed": op_seed} for w in active
        }
        for w, payload in self.open_payloads.items():
            try:
                pool.send(w, "shard-open", payload)
            except (ShardCrashed, ShardTimeout) as exc:
                self._rebuild(w, exc)  # re-opens

    # -- the executor: one wave per run -------------------------------------
    def run(self, batch: Sequence[SessionContext]) -> List[Optional[float]]:
        per: Dict[int, List[SessionContext]] = {}
        for c in list(batch) + self.pending_replays:
            per.setdefault(self.shard_of[c.seq], []).append(c)
        self.pending_replays = []
        for w in sorted(per):
            self._send(w, "shard-serve", {
                "seqs": [c.seq for c in per[w]],
                "specs": [self.wires[c.seq] for c in per[w]],
                "waits": [c.wait_s for c in per[w]],
            })
        for w in sorted(per):
            self._absorb(self._reply(w, "shard-result"))
        out: List[Optional[float]] = []
        for c in batch:
            served = self.results[c.seq]
            if served.status == "completed":
                self.record_keys.add(c.key)
            out.append(None if served.replayed else served.virtual_s)
        return out

    def replay(self, c: SessionContext, count: bool = False) -> bool:
        if c.key not in self.record_keys:
            return False
        self.pending_replays.append(c)
        return True

    def close(self) -> None:
        """Settle every episode.  A worker that dies at (or before) its
        close loses the episode's counters and op-point delta with it,
        so the rebuild redoes the whole episode and closes the
        replacement — the settle is then bitwise the one the dead
        worker would have sent."""
        for w in self.open_payloads:
            self._send(w, "shard-close", None)
            self.closes[w] = self._reply(w, "shard-closed")

    def crash_row(self, w: int) -> dict:
        """Shard ``w``'s disruption: crashes, sessions redone, the wall
        the redo took and, after a crash, each death's exit code."""
        row = self.crash_rows[w]
        out = {
            "crashes": row["crashes"],
            "redone_sessions": row["redone_sessions"],
            "recovery_wall_s": round(row["recovery_wall_s"], 6),
        }
        if row["crash_exitcodes"]:
            out["crash_exitcodes"] = list(row["crash_exitcodes"])
        return out

    # -- frames, and failover ------------------------------------------------
    def _absorb(self, reply: dict) -> None:
        for seq, wire in zip(reply["seqs"], reply["results"]):
            self.results[seq] = result_from_wire(wire)

    def _send(self, w: int, kind: str, payload: Optional[dict]) -> None:
        """Send a frame that expects a reply; until :meth:`_reply`
        collects it, a rebuild of ``w`` re-sends it."""
        self.in_flight[w] = (kind, payload)
        try:
            self.pool.send(w, kind, payload)
        except (ShardCrashed, ShardTimeout) as exc:
            self._rebuild(w, exc)

    def _reply(self, w: int, expect: str) -> dict:
        while True:
            try:
                reply = self.pool.recv(w, expect)
                break
            except (ShardCrashed, ShardTimeout) as exc:
                self._rebuild(w, exc)
        kind, payload = self.in_flight.pop(w)
        if kind == "shard-serve":
            self.history[w].append(payload)
        return reply

    def _rebuild(self, w: int, exc: BaseException) -> None:
        """Fail shard ``w`` over: respawn its worker, re-open the
        episode from the identical open payload (same op-point seed, so
        redone sessions warm-start alike), replay every wave the dead
        episode had served and re-send the frame in flight.  A death
        during the redo starts it over."""
        pool, row = self.pool, self.crash_rows[w]
        while True:
            self.total_crashes += 1
            row["crashes"] += 1
            row["crash_exitcodes"].append(
                exc.exitcode if isinstance(exc, ShardCrashed) else None
            )
            if self.total_crashes > self.recovery_cap:
                raise exc
            t_rec = time.perf_counter()
            try:
                pool.respawn(w)
                pool.send(w, "shard-open", self.open_payloads[w])
                for wave in self.history[w]:
                    pool.send(w, "shard-serve", wave)
                    self._absorb(pool.recv(w, "shard-result"))
                if w in self.in_flight:
                    pool.send(w, *self.in_flight[w])
                row["redone_sessions"] += sum(
                    len(wave["seqs"]) for wave in self.history[w]
                )
                return
            except (ShardCrashed, ShardTimeout) as again:
                exc = again
            finally:
                row["recovery_wall_s"] += time.perf_counter() - t_rec


# --------------------------------------------------------------------------
# the parent-side serve entrypoint
# --------------------------------------------------------------------------

def serve_sessions_sharded(
    specs: Sequence[SessionSpec],
    pool: ShardPool,
    dedup: bool = True,
    admission: Optional[AdmissionPolicy] = None,
) -> ServeReport:
    """Serve ``specs`` across ``pool``'s worker processes and merge the
    per-shard reports into one :class:`ServeReport`.

    The pool is the caller's, and every process knob is set on it: the
    worker count, start method, transport, op store, ``recv_timeout_s``
    and any kills armed with :meth:`ShardPool.arm_kills`.  A
    long-running server keeps one pool, amortizing worker startup *and*
    compounding its op-point store across calls;
    ``serve_sessions(mode="shard")`` builds one for a single call.
    ``wall_s`` covers the serve on the pool, not its spawn or close.

    **Self-healing**: a worker that dies mid-serve is replaced in place
    and its episode redone deterministically (see
    :class:`_ShardExecutor`), so a serve surviving N kills returns
    per-session digests bitwise-identical to an uninterrupted run; the
    disruption is accounted in the per-shard rows (``crashes``,
    ``crash_exitcodes``, ``redone_sessions``, ``recovery_wall_s``), and
    the redo wall is charged to the report like any other work.

    **A failed serve leaves the pool usable**: if the call raises,
    every worker it touched is respawned (~10 ms each under fork,
    ~0.45 s under spawn) so no open episode, unread reply or ring
    reference survives, ``pool.op_store`` holds exactly what earlier
    serves merged, and the error is re-raised; a respawn that itself
    fails leaves a dead slot the next serve heals by failover.
    """
    workers = pool.workers
    t0 = time.perf_counter()

    # the timeline is the parent's, over the whole batch — the same
    # core inline serving runs, so the shed set, the waits and the
    # reasons match inline mode bitwise
    core = AdmissionCore(None, admission, dedup)
    for spec in specs:
        core.offer(0.0, spec)
    contexts = core.contexts

    # wire-validate every session (fault plans are refused before any
    # frame is sent) and place by family over the whole batch — whenever
    # a session starts, it must land on the shard already holding its
    # family's records and op lines
    wires = {c.seq: spec_to_wire(c.spec) for c in contexts}
    buckets = assign_shards([(c.seq, c.spec) for c in contexts], workers)
    shard_of = {seq: w for w, bucket in enumerate(buckets) for seq, _ in bucket}
    active = [w for w in range(workers) if buckets[w]]

    try:
        executor = _ShardExecutor(
            pool, dedup, wires, shard_of, active,
            op_cache=any(spec.op_cache for spec in specs),
        )
        # wave 1 is everything that starts at t = 0 — each worker's own
        # core reproduces the in-wave twin replays and the per-family
        # execution order exactly (families never split across shards);
        # after it the core admits, charges and expiry-sheds the parked
        # queue at the instants the returned virtual times give
        core.run(executor)
        executor.close()
    except BaseException:
        # the pool outlives this failed serve: its workers may hold an
        # open episode and unread frames, so each is replaced and the
        # pool's next serve cannot misattribute stale replies
        for w in active:
            try:
                pool.respawn(w)
            except OSError:
                pass  # a dead slot: the next send raises ShardCrashed
        raise

    # merge: results back into global admission order (the parent's core
    # finished the sessions it shed), counters summed, solved op points
    # folded into the installation-wide store, per-shard rows for the
    # report's imbalance breakdown
    served = executor.results
    results = [
        served[c.seq] if c.seq in served else c.result() if c.done else None
        for c in contexts
    ]
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - protocol invariant
        raise ShardProtocolError(f"no shard returned sessions {missing}")

    totals = dict.fromkeys(
        ("cache_hits", "cache_misses", "op_exact", "op_near", "op_miss"), 0
    )
    shard_rows: List[dict] = []
    for w in range(workers):
        reply = executor.closes.get(w)
        if reply is None:
            shard_rows.append({
                "shard": w, "sessions": 0, "live": 0, "replayed": 0,
                "shed": 0, "points": 0, "op_exact": 0, "op_near": 0,
                "op_miss": 0, "wall_s": 0.0, **executor.crash_row(w),
            })
            continue
        for k in totals:
            totals[k] += reply[k]
        seqs_w = [seq for seq, ws in shard_of.items() if ws == w]
        shard_rows.append({
            "shard": w,
            "sessions": sum(1 for seq in seqs_w if seq in served),
            "live": reply["live"],
            "replayed": reply["replayed"],
            "shed": sum(1 for seq in seqs_w if results[seq].status == "shed"),
            "points": sum(
                len(served[seq].results) for seq in seqs_w if seq in served
            ),
            "op_exact": reply["op_exact"],
            "op_near": reply["op_near"],
            "op_miss": reply["op_miss"],
            "op_cache": reply["op_stats"],
            "wall_s": round(reply["wall_s"], 6),
            **executor.crash_row(w),
        })
        if reply.get("op_export"):
            pool.op_store.preload(reply["op_export"])

    n_replayed = sum(1 for r in results if r.replayed)
    n_shed = sum(1 for r in results if r.status == "shed")
    return ServeReport(
        results=results,
        wall_s=time.perf_counter() - t0,
        mode="shard",
        workers=workers,
        live=len(results) - n_replayed - n_shed,
        replayed=n_replayed,
        cache_hits=totals["cache_hits"],
        cache_misses=totals["cache_misses"],
        parked=core.n_parked,
        op_exact=totals["op_exact"],
        op_near=totals["op_near"],
        op_miss=totals["op_miss"],
        shard_rows=shard_rows,
    )
