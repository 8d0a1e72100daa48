"""The shard episode protocol as a model (ROADMAP 4(a)).

One caller-held ``ShardPool(2)`` per example, driven by drawn rules:
serve one of three small batches (bounded or not, optionally under a
one-event kill plan at open / wave / close), make a serve fail once
mid-protocol, SIGKILL an idle worker between serves.  The protocol is
seven frame kinds and one recovery primitive (``respawn``), so the model
is short: every successful serve's rows are the inline rows for that
batch, its ``crashes`` are exactly the kills that fired, the pool's op
store is what the successful serves merged and nothing else, and at
teardown no ``/dev/shm`` segment, stderr spool, child process or thread
is left.

The explicit fork/spawn x pipe/shm x open/wave/close matrix stays in
``test_failover.py`` for what this does not reach (spawn, pipe-only
pools, four workers, budget leases).
"""

from __future__ import annotations

import contextlib
import hashlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.faults.plan import FaultPlan, KillShardWorker
from repro.serve import (
    AdmissionPolicy,
    SharedInstallation,
    ShardPool,
    serve_sessions,
    serve_sessions_sharded,
)
from repro.serve.demo import build_session_specs
from repro.serve.shards import assign_shards
from repro.serve.shm import SHM_THRESHOLD, encode_payload_into

from .test_failover import _fail_once_mid_wave, _kill, nothing_left_behind

BATCHES = {
    "cold": build_session_specs(3, classes=3, points=1),
    "twins": build_session_specs(4, classes=2, points=1),
    "family": build_session_specs(2, classes=2, points=1, op_cache=True),
}
#: which shards each batch keeps busy
BUSY = {
    name: [bool(bucket) for bucket in assign_shards(list(enumerate(specs)), 2)]
    for name, specs in BATCHES.items()
}
#: everything runs, one at a time: several waves, charged waits, no shed
BOUND = AdmissionPolicy(max_live=1, max_parked=10)


def _rows(report):
    return [
        (r.name, r.status, r.digest, r.virtual_s, r.wait_s, r.results)
        for r in report.results
    ]


#: (batch, bounded, digest of the op store before) -> (rows, store after)
_INLINE = {}


def _inline(batch: str, bounded: bool, records: list):
    """What inline serving returns for ``batch`` over a fresh
    installation whose op-point cache holds ``records`` — a shard
    episode's installation exactly — and the store it leaves."""
    buf = bytearray()
    encode_payload_into(buf, records)
    key = (batch, bounded, hashlib.sha256(buf).hexdigest())
    if key not in _INLINE:
        installation = SharedInstallation.standard()
        installation.op_cache.preload(records)
        report = serve_sessions(
            BATCHES[batch], installation=installation,
            admission=BOUND if bounded else None,
        )
        _INLINE[key] = (_rows(report), installation.op_cache.export())
    return _INLINE[key]


class ShardProtocol(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stack = contextlib.ExitStack()
        self.pools = []
        self.stack.enter_context(nothing_left_behind(self.pools))
        self.pool = None
        #: the op store the successful serves so far add up to
        self.records = []
        #: workers SIGKILLed while idle and not yet replaced
        self.dead = set()
        #: the last successful serve: (report, inline rows, crashes)
        self.last = None

    @initialize(shm_threshold=st.sampled_from((1, SHM_THRESHOLD)))
    def open_pool(self, shm_threshold):
        # fork and shm where the box has them; threshold 1 sends every
        # payload by ring reference
        self.pool = self.stack.enter_context(
            ShardPool(2, transport="auto", shm_threshold=shm_threshold)
        )
        self.pools.append(self.pool)

    def teardown(self):
        self.stack.close()  # closes the pool, then checks nothing is left

    def _serve(self, batch, bounded):
        return serve_sessions_sharded(
            BATCHES[batch], self.pool, admission=BOUND if bounded else None
        )

    @rule(
        batch=st.sampled_from(sorted(BATCHES)),
        bounded=st.booleans(),
        shard=st.integers(0, 1),
        phase=st.sampled_from((None, "open", "wave", "close")),
    )
    def serve(self, batch, bounded, shard, phase):
        plan = None
        crashes = [int(w in self.dead and BUSY[batch][w]) for w in (0, 1)]
        if phase is not None:
            plan = FaultPlan(seed=0, events=(
                KillShardWorker(at_s=0.0, shard=shard, phase=phase),
            ))
            # a kill at open finds an idle-killed worker already dead:
            # one death, not two
            if BUSY[batch][shard] and not (crashes[shard] and phase == "open"):
                crashes[shard] += 1
        self.pool.arm_kills(plan)
        report = self._serve(batch, bounded)
        self.pool.arm_kills(None)
        rows, self.records = _inline(batch, bounded, self.records)
        self.dead -= {w for w in (0, 1) if BUSY[batch][w]}
        self.last = (report, rows, crashes)

    @rule(batch=st.sampled_from(sorted(BATCHES)), bounded=st.booleans())
    def fail_mid_serve(self, batch, bounded):
        _fail_once_mid_wave(self.pool, lambda: self._serve(batch, bounded))
        self.dead -= {w for w in (0, 1) if BUSY[batch][w]}

    @rule(shard=st.integers(0, 1))
    def kill_idle_worker(self, shard):
        if shard not in self.dead:
            _kill(self.pool._procs[shard])
            self.dead.add(shard)

    @invariant()
    def serves_match_inline_and_the_store_is_what_they_merged(self):
        if self.pool is None:
            return
        assert self.pool.op_store.export() == self.records
        if self.last is not None:
            report, rows, crashes = self.last
            assert _rows(report) == rows
            assert [row["crashes"] for row in report.shard_rows] == crashes


TestShardProtocol = ShardProtocol.TestCase
TestShardProtocol.settings = settings(
    derandomize=True, max_examples=15, stateful_step_count=5, deadline=None
)
