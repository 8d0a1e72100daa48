"""Process-sharded serving: the differential contract.

Sharded serving's whole claim is *exactness across cores* — per-session
digests, virtual times, statuses, waits, and the shed set (including
deadline expiry while parked, judged by the parent's admission
simulation) are bitwise-identical whether the batch runs inline or
dealt across 2 or 4 OS worker processes, over framed pipes or the
shared-memory data plane, under fork or spawn.  These tests hold the
plane to it, plus the typed boundary errors (:class:`NotShardSafe`),
the framed wire protocol, the cross-serve operating-point store, and
the deterministic placement/partition helpers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, LatencySpike
from repro.network.transport import HEADER_STRUCT, Transport
from repro.network.topology import Topology
from repro.serve import (
    AdmissionPolicy,
    NotShardSafe,
    SessionSpec,
    SharedInstallation,
    ShardPool,
    ShardProtocolError,
    serve_sessions,
    serve_sessions_sharded,
)
from repro.records import render
from repro.serve.demo import build_session_specs
from repro.serve.shards import (
    assign_shards,
    assert_shard_safe,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
    shard_family,
    spec_from_wire,
    spec_to_wire,
)
from repro.serve.session import SessionResult
from repro.serve.shm import shm_available
from repro.network.clock import VirtualClock

from .test_failover import _fail_once_mid_wave, nothing_left_behind
from .test_shm import _roundtrip


def _rows(report):
    return [
        (r.name, r.digest, r.virtual_s, r.status, r.shed_reason, r.replayed)
        for r in report.results
    ]


class TestDifferential:
    """workers=2/4 serve output must be bitwise-identical to inline."""

    def test_two_and_four_workers_match_inline(self):
        specs = build_session_specs(12, classes=4, points=2)
        inline = serve_sessions(specs)
        assert inline.mode == "inline"
        base = _rows(inline)
        for workers in (2, 4):
            shard = serve_sessions(specs, mode="shard", workers=workers)
            assert shard.mode == "shard" and shard.workers == workers
            assert _rows(shard) == base

    def test_dedup_off_matches_inline(self):
        specs = build_session_specs(6, classes=3, points=2)
        inline = serve_sessions(specs, dedup=False)
        shard = serve_sessions(specs, mode="shard", workers=2, dedup=False)
        assert _rows(shard) == _rows(inline)
        assert shard.live == inline.live == 6

    def test_op_cache_mix_matches_inline_including_counters(self):
        """Op-cache families land whole on one shard, so the exact/near/
        miss counters — not just digests — must match inline."""
        specs = build_session_specs(12, classes=4, points=3, op_cache=True)
        inline = serve_sessions(specs)
        shard = serve_sessions(specs, mode="shard", workers=4)
        assert _rows(shard) == _rows(inline)
        assert (shard.op_exact, shard.op_near, shard.op_miss) == (
            inline.op_exact,
            inline.op_near,
            inline.op_miss,
        )

    def test_shed_under_admission_matches_inline(self):
        """The static queue-full tier is judged by the parent over the
        global ranked list: shed set, reasons, and surviving digests all
        match inline."""
        specs = build_session_specs(10, classes=4, points=2)
        adm = AdmissionPolicy(max_live=3, max_parked=2)
        inline = serve_sessions(specs, admission=adm, dedup=False)
        shard = serve_sessions(specs, mode="shard", workers=2, admission=adm, dedup=False)
        assert _rows(shard) == _rows(inline)
        assert shard.shed == inline.shed == 5
        assert {r.shed_reason for r in shard.results if r.status == "shed"} == {
            "queue full (3 live + 2 parked slots, priority 0)"
        }

    def test_results_stay_in_submission_order(self):
        specs = build_session_specs(8, classes=4, points=2)
        shard = serve_sessions(specs, mode="shard", workers=4)
        assert [r.name for r in shard.results] == [s.name for s in specs]

    def test_spawn_start_method_matches_fork(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2, start_method="spawn") as pool:
            spawned = serve_sessions_sharded(specs, pool)
        assert _rows(spawned) == base

    def test_transport_matrix_matches_inline(self):
        """The acceptance matrix: pipe and shm transports, fork and
        spawn start methods, 2 and 4 workers — all bitwise-identical to
        inline."""
        specs = build_session_specs(6, classes=3, points=2, op_cache=True)
        base = _rows(serve_sessions(specs))
        transports = ["pipe"] + (["shm"] if shm_available() else [])
        for transport in transports:
            for start_method in ("fork", "spawn"):
                for workers in (2, 4):
                    with ShardPool(
                        workers, start_method=start_method, transport=transport
                    ) as pool:
                        shard = serve_sessions_sharded(specs, pool)
                    assert _rows(shard) == base, (transport, start_method, workers)

    def test_every_payload_through_the_ring_matches_inline(self):
        """shm_threshold=1 forces every open/serve/result/close payload
        by ring reference — parity must survive the full shm path, both
        directions."""
        if not shm_available():
            pytest.skip("no shared memory on this host")
        specs = build_session_specs(8, classes=4, points=2, op_cache=True)
        base = _rows(serve_sessions(specs))
        with ShardPool(2, transport="shm", shm_threshold=1) as pool:
            shard = serve_sessions_sharded(specs, pool)
        assert _rows(shard) == base


def _rows_with_waits(report):
    return [
        (r.name, r.digest, r.virtual_s, r.status, r.shed_reason,
         r.replayed, r.wait_s, r.deadline_met)
        for r in report.results
    ]


class TestParkedDeadlineParity:
    """Deadline expiry *while parked* is judged by the parent's
    admission simulation at the exact instants — and with the exact
    reason strings — the inline scheduler would use."""

    def _deadlined_specs(self, dedup: bool):
        specs = build_session_specs(10, classes=4, points=2)
        adm = AdmissionPolicy(max_live=2, max_parked=8)
        probe = serve_sessions(specs, admission=adm, dedup=dedup)
        waits = [r.wait_s for r in probe.results]
        out = []
        for i, (spec, w) in enumerate(zip(specs, waits)):
            if w <= 0:
                out.append(spec)  # admitted immediately: leave deadline-free
            elif i % 2:
                out.append(dataclasses.replace(spec, deadline_s=w * 0.6))  # expires
            else:
                out.append(dataclasses.replace(spec, deadline_s=w + 1e3))  # survives
        return out, adm

    @pytest.mark.parametrize("dedup", [True, False])
    def test_expiry_while_parked_matches_inline(self, dedup):
        specs, adm = self._deadlined_specs(dedup)
        inline = serve_sessions(specs, admission=adm, dedup=dedup)
        expired = [
            r for r in inline.results if "expired while parked" in r.shed_reason
        ]
        assert expired, "mix must actually exercise parked-deadline expiry"
        assert all(r.deadline_met is False for r in expired)
        for workers in (2, 4):
            shard = serve_sessions(
                specs, mode="shard", workers=workers, admission=adm, dedup=dedup
            )
            assert _rows_with_waits(shard) == _rows_with_waits(inline)

    def test_queue_waits_match_inline_without_deadlines(self):
        """Admission chronology parity shows up as identical charged
        waits even when nothing sheds."""
        specs = build_session_specs(9, classes=3, points=2)
        adm = AdmissionPolicy(max_live=2, max_parked=9)
        inline = serve_sessions(specs, admission=adm)
        shard = serve_sessions(specs, mode="shard", workers=3, admission=adm)
        assert _rows_with_waits(shard) == _rows_with_waits(inline)
        assert any(r.wait_s > 0 for r in inline.results)


class TestSurface:
    def test_serve_sessions_mode_shard_dispatches(self):
        specs = build_session_specs(4, classes=2, points=2)
        report = serve_sessions(specs, mode="shard", workers=2)
        assert report.mode == "shard" and report.workers == 2
        assert _rows(report) == _rows(serve_sessions(specs, mode="inline"))

    def test_serve_sessions_shard_mode_two_sessions(self):
        specs = build_session_specs(2, classes=2, points=2)
        report = serve_sessions(specs, mode="shard", workers=2)
        assert report.mode == "shard"

    def test_summary_gains_workers_and_per_shard_rows(self):
        specs = build_session_specs(6, classes=3, points=2)
        report = serve_sessions(specs, mode="shard", workers=2)
        records = report.records()
        assert records[0]["workers"] == 2
        shards = [r for r in records if r["record"] == "shard"]
        assert len(shards) == 2
        for row in shards:
            assert set(row) >= {
                "shard", "sessions", "live", "replayed", "shed",
                "points", "op_exact", "op_near", "op_miss", "wall_s",
            }
        assert sum(row["sessions"] for row in shards) == 6
        assert sum(row["points"] for row in shards) == report.points
        # inline reports stay clean: no shard records
        assert all(
            r["record"] != "shard" for r in serve_sessions(specs).records()
        )

    def test_retry_budget_is_leased_and_settled(self):
        # No lease crosses the pipe any more: sessions run the
        # supervisor in each worker, on the episode installation's own
        # retry budget, exactly as inline sessions do.
        specs = build_session_specs(4, classes=2, points=2)
        report = serve_sessions(specs, mode="shard", workers=2)
        assert report.mode == "shard" and report.workers == 2
        assert _rows(report) == _rows(serve_sessions(specs, mode="inline"))
        assert all("retry_budget" not in r for r in report.shard_rows)
        records = report.records()
        assert all(
            not any(k.startswith("retry_budget") for k in r) for r in records
        )
        render(records, as_json=True)

    def test_pool_reuse_across_rounds(self):
        specs = build_session_specs(4, classes=2, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            first = serve_sessions_sharded(specs, pool)
            second = serve_sessions_sharded(specs, pool)
            assert _rows(first) == base
            assert _rows(second) == base
        with pytest.raises(RuntimeError, match="closed"):
            pool.send(0, "shard-exit", None)

    def test_caller_pool_resyncs_after_midserve_failure(self, monkeypatch):
        """Regression: an exception mid-serve on a caller-supplied pool
        must not strand workers in an open episode with unconsumed
        frames in pipes/rings — the next serve on the same pool has to
        start from a clean protocol stream and still match inline."""
        import repro.serve.shards as shards_mod

        specs = build_session_specs(6, classes=3, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:
            real = shards_mod.result_from_wire

            def boom(wire):
                raise RuntimeError("injected mid-serve failure")

            # blow up while wave-1 replies are still in flight: workers
            # hold open episodes and undrained result frames
            monkeypatch.setattr(shards_mod, "result_from_wire", boom)
            with pytest.raises(RuntimeError, match="injected mid-serve"):
                serve_sessions_sharded(specs, pool)
            monkeypatch.setattr(shards_mod, "result_from_wire", real)
            again = serve_sessions_sharded(specs, pool)
            assert _rows(again) == base

    def test_caller_pool_serves_after_a_failure_that_left_a_worker_dead(self):
        """A worker dead when the serve fails used to leave the
        caller's pool broken for good; the failed serve's workers are
        replaced, so the pool's next serve matches inline."""
        specs = build_session_specs(6, classes=3, points=2)
        base = _rows(serve_sessions(specs))
        with ShardPool(2) as pool:

            def serve():
                return serve_sessions_sharded(specs, pool)

            _fail_once_mid_wave(pool, serve, kill=0)
            again = serve()
            assert _rows(again) == base
            assert all(row["crashes"] == 0 for row in again.shard_rows)

    def test_shard_mode_needs_a_worker(self):
        """``workers=0`` used to serve inline behind ``mode="shard"``;
        inline is ``mode="inline"``, and a pool of no workers is the
        pool's own ``ValueError``."""
        specs = build_session_specs(2, classes=2, points=1)
        with pytest.raises(ValueError, match=">= 1 worker"):
            serve_sessions(specs, mode="shard", workers=0)


_FAULTED = SessionSpec(
    name="faulted", points=(1.3,),
    fault_plan=FaultPlan(seed=1, events=(LatencySpike(at_s=0.5, until_s=2.0, extra_s=0.1),)),
)


class TestNotShardSafe:
    def test_fault_plan_spec_is_refused_with_typed_error(self):
        with ShardPool(2) as pool:
            with pytest.raises(NotShardSafe, match="fault plan"):
                serve_sessions_sharded([_FAULTED], pool)
            assert pool._last_kind == [None, None], "refused before any frame"

    def test_fault_plan_through_shard_mode_leaves_nothing_behind(self):
        with nothing_left_behind([]):
            with pytest.raises(NotShardSafe, match='fault plan.*mode="inline"'):
                serve_sessions([_FAULTED], mode="shard", workers=2)

    def test_live_installation_argument_is_refused(self):
        spec = SessionSpec(name="a", points=(1.3,))
        with pytest.raises(NotShardSafe, match="own replica"):
            serve_sessions(
                [spec], installation=SharedInstallation.standard(),
                mode="shard", workers=2,
            )

    def test_pickling_live_installation_raises_typed_error(self):
        with pytest.raises(NotShardSafe, match="SharedInstallation"):
            pickle.dumps(SharedInstallation.standard())

    def test_pickling_live_transport_raises_typed_error(self):
        transport = Transport(topology=Topology(), clock=VirtualClock())
        with pytest.raises(NotShardSafe, match="Transport"):
            pickle.dumps(transport)

    def test_message_names_the_object_and_the_remedy(self):
        with pytest.raises(NotShardSafe) as exc:
            pickle.dumps(SharedInstallation.standard())
        msg = str(exc.value)
        assert "process boundary" in msg
        assert "replica" in msg
        assert "Traceback" not in msg  # typed error, not a pickle trace

    def test_payload_walker_finds_nested_live_objects(self):
        live = Transport(topology=Topology(), clock=VirtualClock())
        with pytest.raises(NotShardSafe, match=r"Transport at payload\['deep'\]\[1\]"):
            assert_shard_safe({"deep": ["fine", live]})
        assert_shard_safe({"ok": [1, 2.5, "s", None, True]})


_reals = st.floats(allow_nan=False)
_counts = st.integers(0, 2**40)


class TestFrames:
    def _pipe(self):
        a, b = multiprocessing.Pipe(duplex=True)
        return a, b

    def test_round_trip_reuses_the_32_byte_header(self):
        a, b = self._pipe()
        send_frame(a, "shard-serve", {"k": [1, 2]}, src="parent", dst="shard-0")
        raw = b.recv_bytes()
        assert len(raw) >= HEADER_STRUCT.size
        b.send_bytes(raw)  # replay the exact bytes back
        kind, payload = recv_frame(a)
        assert kind == "shard-serve"
        assert payload == {"k": [1, 2]}

    def test_empty_payload_frame(self):
        a, b = self._pipe()
        send_frame(a, "shard-exit", None, src="parent", dst="shard-0")
        kind, payload = recv_frame(b)
        assert kind == "shard-exit" and payload is None

    def test_unknown_kind_is_rejected_on_send(self):
        a, _ = self._pipe()
        with pytest.raises(ShardProtocolError, match="unknown frame kind"):
            send_frame(a, "shard-bogus", {}, src="x", dst="y")

    def test_runt_frame_is_rejected(self):
        a, b = self._pipe()
        a.send_bytes(b"tiny")
        with pytest.raises(ShardProtocolError, match="runt frame"):
            recv_frame(b)

    def test_length_mismatch_is_rejected(self):
        a, b = self._pipe()
        header = HEADER_STRUCT.pack(0, __import__("zlib").crc32(b"shard-exit"),
                                    99, 0, 0, float("inf"))
        a.send_bytes(header + b"{}")
        with pytest.raises(ShardProtocolError, match="claims 99"):
            recv_frame(b)

    def test_spec_codec_round_trips(self):
        spec = SessionSpec(
            name="s", points=(1.3, 1.34), placement={"combustor": "cray"},
            altitude_m=5000.0, mach=0.4, deadline_s=30.0, priority=2,
            traffic_class="interactive", op_cache=True,
        )
        back = spec_from_wire(spec_to_wire(spec))
        assert back == spec
        assert back.workload_key() == spec.workload_key()

    def test_result_codec_round_trips(self):
        spec = SessionSpec(name="one", points=(1.3,))
        r = serve_sessions([spec]).results[0]
        back = result_from_wire(result_to_wire(r))
        assert back == r

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        SessionSpec,
        name=st.text(max_size=8),
        points=st.lists(_reals, max_size=4).map(tuple),
        placement=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3),
        altitude_m=_reals, mach=_reals, transient_s=_reals, transient_dt=_reals,
        avs_machine=st.text(max_size=8), dispatch=st.text(max_size=8),
        deadline_s=st.none() | _reals, priority=st.integers(-5, 5),
        traffic_class=st.text(max_size=8),
        op_cache=st.booleans(),
    ))
    def test_the_spec_dataclass_is_the_wire_field_list(self, spec):
        """Every field but the (refused) fault plan crosses, in
        declaration order, and comes back equal — through the codec."""
        wire = spec_to_wire(spec)
        assert list(wire) == [
            f.name for f in dataclasses.fields(SessionSpec) if f.name != "fault_plan"
        ]
        assert spec_from_wire(_roundtrip(wire)) == spec

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        SessionResult,
        name=st.text(max_size=8), workload_key=st.text(max_size=8),
        replayed=st.booleans(),
        results=st.lists(st.dictionaries(
            st.text(max_size=6), _reals | st.booleans(), max_size=3), max_size=3),
        transient=st.none() | st.dictionaries(st.text(max_size=6), _reals, max_size=3),
        virtual_s=_reals, digest=st.text(max_size=8),
        traces=_counts, messages=_counts, payload_bytes=_counts,
        header_bytes=_counts, net_virtual_s=_reals,
        fault_log=st.lists(st.tuples(_reals, st.text(max_size=8)), max_size=3),
        status=st.sampled_from(("completed", "degraded", "shed")),
        shed_reason=st.text(max_size=8), wait_s=_reals,
        deadline_met=st.none() | st.booleans(), error=st.text(max_size=8),
        arrival_s=_reals, traffic_class=st.text(max_size=8),
    ))
    def test_the_result_dataclass_is_the_wire_field_list(self, result):
        wire = result_to_wire(result)
        assert list(wire) == [f.name for f in dataclasses.fields(SessionResult)]
        assert result_from_wire(_roundtrip(wire)) == result


class TestPlacement:
    def _specs(self, n, **kw):
        return list(enumerate(build_session_specs(n, **kw)))

    def test_same_family_never_splits(self):
        indexed = self._specs(12, classes=3, points=2)
        for workers in (2, 3, 4):
            buckets = assign_shards(indexed, workers)
            fam_to_shard = {}
            for w, bucket in enumerate(buckets):
                for _seq, spec in bucket:
                    fam = shard_family(spec)
                    assert fam_to_shard.setdefault(fam, w) == w

    def test_assignment_is_deterministic_and_total(self):
        indexed = self._specs(10, classes=4, points=2)
        a = assign_shards(indexed, 4)
        b = assign_shards(indexed, 4)
        assert [[seq for seq, _ in bucket] for bucket in a] == [
            [seq for seq, _ in bucket] for bucket in b
        ]
        assert sorted(seq for bucket in a for seq, _ in bucket) == list(range(10))

    def test_rebalance_fills_idle_shards(self):
        """With as many shards as families, hash collisions must not
        leave a shard idle while another holds several groups."""
        indexed = self._specs(12, classes=4, points=2)
        buckets = assign_shards(indexed, 4)
        assert all(bucket for bucket in buckets)

    def test_in_shard_order_is_admission_order(self):
        indexed = self._specs(9, classes=3, points=2)
        for bucket in assign_shards(indexed, 2):
            seqs = [seq for seq, _ in bucket]
            assert seqs == sorted(seqs)


class TestOpPointPlane:
    """The cross-shard operating-point plane: per-shard tier counters
    surface in ``shard_rows`` (and sum to the merged report), and the
    pool-held op store warm-seeds every later serve."""

    def test_merged_op_tiers_equal_shard_row_sums(self):
        specs = build_session_specs(8, classes=4, points=2, op_cache=True)
        report = serve_sessions(specs, mode="shard", workers=3)
        busy = [r for r in report.shard_rows if r["sessions"]]
        assert busy, "workload must land on at least one shard"
        for row in busy:
            stats = row["op_cache"]
            assert stats["exact_hits"] == row["op_exact"]
            assert stats["near_hits"] == row["op_near"]
            assert stats["misses"] == row["op_miss"]
            assert stats["entries"] >= 1
        assert report.op_exact == sum(r["op_exact"] for r in report.shard_rows)
        assert report.op_near == sum(r["op_near"] for r in report.shard_rows)
        assert report.op_miss == sum(r["op_miss"] for r in report.shard_rows)
        merged = report.records()[0]
        assert merged["op_exact"] == report.op_exact
        assert merged["op_near"] == report.op_near
        assert merged["op_miss"] == report.op_miss

    def test_pool_op_store_warm_seeds_next_serve(self):
        """A second sharded serve over a reused pool must behave like a
        second inline serve over a reused installation: the op store
        carries every solved point across, so cold solves vanish."""
        specs = build_session_specs(6, classes=3, points=2, op_cache=True)
        inst = SharedInstallation.standard()
        serve_sessions(specs, installation=inst, dedup=False)
        inline_second = serve_sessions(specs, installation=inst, dedup=False)
        with ShardPool(2) as pool:
            first = serve_sessions_sharded(specs, pool, dedup=False)
            assert len(pool.op_store) > 0, "solved points must reach the store"
            shard_second = serve_sessions_sharded(
                specs, pool, dedup=False
            )
        assert first.op_miss > 0, "cold first serve must actually solve"
        assert _rows(shard_second) == _rows(inline_second)
        assert (
            shard_second.op_exact, shard_second.op_near, shard_second.op_miss
        ) == (
            inline_second.op_exact, inline_second.op_near, inline_second.op_miss
        )
        assert shard_second.op_miss == 0

    def test_reserve_from_the_pool_store_keeps_point_types(self):
        """Pinned drift: the op-store blob packed every point value as
        a float64, so a re-serve seeded from ``pool.op_store`` returned
        ``"converged": 1.0`` where inline returns ``True`` — invisible
        to ``==``, visible to any JSON consumer."""
        specs = build_session_specs(2, classes=1, points=2, op_cache=True)
        inst = SharedInstallation.standard()
        serve_sessions(specs, installation=inst, dedup=False)
        inline_second = serve_sessions(specs, installation=inst, dedup=False)
        with ShardPool(2) as pool:
            serve_sessions_sharded(specs, pool, dedup=False)
            shard_second = serve_sessions_sharded(
                specs, pool, dedup=False
            )
        assert shard_second.op_exact == inline_second.op_exact > 0
        assert json.dumps([r.results for r in shard_second.results]) == json.dumps(
            [r.results for r in inline_second.results]
        )
        for r in shard_second.results:
            for row in r.results:
                assert type(row["converged"]) is bool

    def test_explicit_op_store_shared_between_pools(self):
        """An op store passed by the caller outlives any one pool."""
        from repro.serve.opcache import OpPointCache

        specs = build_session_specs(4, classes=2, points=2, op_cache=True)
        store = OpPointCache()
        with ShardPool(2, op_store=store) as pool:
            cold = serve_sessions_sharded(specs, pool)
        assert len(store) > 0
        with ShardPool(2, op_store=store) as pool:
            warm = serve_sessions_sharded(specs, pool)
        # a warm serve skips solves outright, so it is *faster*, not
        # identical: every point lands as an exact hit and virtual time
        # (solver effort) drops
        assert [(r.name, r.status) for r in warm.results] == [
            (r.name, r.status) for r in cold.results
        ]
        assert warm.op_miss == 0
        assert cold.op_miss > 0
        assert sum(r.virtual_s for r in warm.results) < sum(
            r.virtual_s for r in cold.results
        )
