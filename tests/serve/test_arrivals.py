"""Open-loop serving (PR 7 tentpole, part c, + satellites 1-2):
``serve_arrivals`` timeline semantics, the per-class
summary block, and the zero-wall throughput guard."""

from __future__ import annotations

import pytest

from repro.serve import (
    AdmissionPolicy,
    Arrival,
    ServeReport,
    SessionSpec,
    SharedInstallation,
    serve_arrivals,
    serve_sessions,
)
from repro.resilience.ledger import LedgerBook
from repro.serve.scheduler import WALL_S_FLOOR


def _spec(name, wf=1.30, **kw):
    return SessionSpec(name=name, points=(wf,), **kw)


def _class_ledgers(report):
    """The per-class ledgers behind a serve report's ``class`` records,
    observed the way ``ServeReport.records`` observes them."""
    book = LedgerBook()
    for r in report.results:
        book.observe_attempt(r, is_retry=False)
    return book.ledgers


def _moments(led):
    """A percentile ledger's sample count, mean, min and max."""
    return {"count": led.count, "mean": led.mean, "min": led.min, "max": led.max}


class TestTimeline:
    def test_free_slot_admits_with_zero_wait(self):
        report = serve_arrivals([Arrival(at_s=3.5, spec=_spec("a"))], dedup=False)
        (r,) = report.results
        assert r.arrival_s == 3.5
        assert r.wait_s == 0.0
        assert r.started_s == 3.5
        assert r.finished_s == pytest.approx(3.5 + r.virtual_s)

    def test_wait_charged_from_arrival_not_handover(self):
        """With one live slot, the second arrival waits exactly from its
        own arrival instant to the first session's departure."""
        report = serve_arrivals(
            [
                Arrival(at_s=0.0, spec=_spec("first", 1.30)),
                Arrival(at_s=2.0, spec=_spec("second", 1.34)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=4),
        )
        first, second = report.results
        assert first.wait_s == 0.0
        departure = first.finished_s
        assert second.wait_s == pytest.approx(departure - 2.0)
        assert second.started_s == pytest.approx(departure)
        assert report.parked == 1

    def test_late_arrival_into_idle_installation_waits_zero(self):
        """Open-loop is not batch: a session arriving after everything
        drained sees an idle installation, not a backlog."""
        report = serve_arrivals(
            [
                Arrival(at_s=0.0, spec=_spec("early", 1.30)),
                Arrival(at_s=500.0, spec=_spec("late", 1.34)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=4),
        )
        late = report.by_name("late")
        assert late.wait_s == 0.0
        assert late.started_s == 500.0

    def test_pair_form_and_input_order_ties(self):
        report = serve_arrivals(
            [(1.0, _spec("x", 1.30)), (1.0, _spec("y", 1.34))], dedup=False
        )
        assert [r.name for r in report.results] == ["x", "y"]

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            serve_arrivals([(-0.1, _spec("bad"))])

    def test_makespan_spans_arrival_horizon(self):
        report = serve_arrivals([Arrival(at_s=40.0, spec=_spec("a"))], dedup=False)
        assert report.makespan_virtual_s == pytest.approx(40.0 + report.results[0].virtual_s)


class TestAdmissionUnderLoad:
    def test_queue_full_sheds_with_reason(self):
        report = serve_arrivals(
            [
                (0.0, _spec("a", 1.30)),
                (0.1, _spec("b", 1.34)),
                (0.2, _spec("c", 1.38)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=1),
        )
        c = report.by_name("c")
        assert c.status == "shed"
        assert "queue full" in c.shed_reason

    def test_higher_priority_arrival_displaces_parked(self):
        report = serve_arrivals(
            [
                (0.0, _spec("live", 1.30)),
                (0.1, _spec("parked-low", 1.34, priority=0)),
                (0.2, _spec("vip", 1.38, priority=2)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=1),
        )
        assert report.by_name("parked-low").status == "shed"
        assert "displaced" in report.by_name("parked-low").shed_reason
        assert report.by_name("vip").status in ("completed", "degraded")

    def test_deadline_expired_while_parked_is_shed(self):
        """A 1-point session runs ~6 virtual s; a parked deadline of 2 s
        cannot survive the wait and must be shed, not run to a miss."""
        report = serve_arrivals(
            [
                (0.0, _spec("hog", 1.30)),
                (0.1, _spec("doomed", 1.34, deadline_s=2.0)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=2),
        )
        doomed = report.by_name("doomed")
        assert doomed.status == "shed"
        assert doomed.deadline_met is False
        assert "deadline" in doomed.shed_reason

    def test_on_shed_retry_reoffered_on_timeline(self):
        retries = []

        def on_shed(ctx, now):
            if "#" in ctx.spec.name:
                return None
            retries.append(now)
            from dataclasses import replace

            return (now + 50.0, replace(ctx.spec, name=ctx.spec.name + "#r1"))

        report = serve_arrivals(
            [
                (0.0, _spec("hog", 1.30)),
                (0.1, _spec("shedme", 1.34)),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=0),
            on_shed=on_shed,
        )
        assert len(retries) == 1
        retry = report.by_name("shedme#r1")
        # re-offered 50 s after the shed, well past the hog's departure
        assert retry.status in ("completed", "degraded")
        assert retry.arrival_s == pytest.approx(retries[0] + 50.0)
        assert retry.wait_s == 0.0


class TestDedupAndModes:
    def test_duplicate_workload_replays_without_slot(self):
        spec = _spec("orig", 1.30)
        from dataclasses import replace

        report = serve_arrivals(
            [
                (0.0, spec),
                (100.0, replace(spec, name="twin")),
            ],
            admission=AdmissionPolicy(max_live=1, max_parked=0),
        )
        twin = report.by_name("twin")
        assert twin.replayed
        assert report.cache_hits == 1
        assert twin.digest == report.by_name("orig").digest

    def test_thread_mode_is_gone(self, capsys):
        """Thread-wave mode bought no wall time under the GIL and was
        deleted (docs/PERFORMANCE.md has the measurement): asking for
        it is an error on every surface, never a silent inline run."""
        from repro.__main__ import main

        with pytest.raises(ValueError, match="unknown serve mode 'thread'"):
            serve_sessions([_spec("a")], mode="thread")
        with pytest.raises(TypeError):
            serve_arrivals([(0.0, _spec("a"))], mode="thread")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--mode", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_no_module_constructs_a_threading_primitive(self):
        """Nothing under ``src/`` starts a thread, so nothing there
        needs a lock: the eight that guarded shared state against
        caller threads (transport, clock, buffer pool, park, workload
        cache, op-cache, retry budget, breaker board) went with the
        threads.  A module that brings one back has to bring its
        threads — and this test — with it.  The chaos soak's
        ``threading.enumerate()`` leak check constructs nothing."""
        import ast
        from pathlib import Path

        import repro

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "threading", "_thread", "concurrent.futures"
                ):
                    offenders.append(f"{path.name}:{node.lineno} from {node.module} import")
                elif (  # called or handed over as a default_factory alike
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("threading", "_thread", "futures")
                    and node.attr != "enumerate"
                ):
                    offenders.append(
                        f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    )
        assert offenders == []

    def test_step_trails_are_gone(self):
        """Sessions run to completion when they start, so no executor
        records a per-step virtual-time trail for a parent to walk; the
        one public spelling that asked for them is a ``TypeError``."""
        from repro.serve.admission import InlineExecutor

        with pytest.raises(TypeError, match="trails"):
            InlineExecutor(SharedInstallation.standard(), trails={})

    def test_the_lines_pool_and_the_contrast_arms_are_gone(self):
        """``wall_parallel`` (one OS thread per line) was slower than
        running a batch's members in order in 10/10 measured pairs, and
        the JSON frame codec was alive only as a bench contrast
        (docs/PERFORMANCE.md): every removed spelling is a loud
        ``TypeError``, never a silently ignored flag."""
        import multiprocessing

        from repro.schooner import SchoonerEnvironment
        from repro.schooner.runtime import CallBatch, CallerContext
        from repro.serve.shards import serve_sessions_sharded
        from repro.serve.shm import recv_frame, send_frame

        with pytest.raises(TypeError, match="wall_parallel"):
            serve_sessions([_spec("a")], wall_parallel=True)
        with pytest.raises(TypeError, match="wall_parallel"):
            serve_arrivals([(0.0, _spec("a"))], wall_parallel=True)
        with pytest.raises(TypeError, match="wall_parallel"):
            serve_sessions_sharded([_spec("a")], None, wall_parallel=True)
        with pytest.raises(TypeError, match="wall_parallel"):
            SchoonerEnvironment.standard(wall_parallel=True)
        env = SchoonerEnvironment.standard()
        caller = CallerContext(timeline=env.clock.timeline("caller:avs"))
        with pytest.raises(TypeError, match="pool"):
            CallBatch(env, caller, pool=None)
        rx, tx = multiprocessing.Pipe(duplex=False)
        try:
            with pytest.raises(TypeError, match="codec"):
                send_frame(tx, "shard-open", {"k": 1}, "p", "w", codec="json")
            with pytest.raises(TypeError, match="codec"):
                recv_frame(rx, codec="json")
        finally:
            rx.close()
            tx.close()

    def test_the_resync_protocol_and_the_second_byte_format_are_gone(self):
        """One way back to a clean worker (``ShardPool.respawn``) and one
        byte format at the shard boundary (the frame codec): the resync
        frames, ``recover`` and the op-store blob's knobs are deleted,
        along with a list of dead processes nothing read
        (docs/FAULTS.md and docs/PERFORMANCE.md have the measurements)."""
        import repro.serve
        from repro.machines.host import Machine
        from repro.serve import OpPointCache, ShardPool
        from repro.serve.shm import FRAME_KINDS, send_frame

        assert not hasattr(ShardPool, "recover")
        assert len(FRAME_KINDS) == 7 and not any("sync" in k for k in FRAME_KINDS)
        assert not hasattr(repro.serve, "OPCACHE_WIRE_VERSION")
        assert not hasattr(Machine, "spawned_processes")
        with pytest.raises(TypeError, match="families"):
            OpPointCache().export(families=["fam"])
        with pytest.raises(TypeError, match="families"):
            OpPointCache().preload([], families={"fam"})
        with pytest.raises(TypeError, match="deadline_s"):
            send_frame(None, "shard-open", None, "p", "w", deadline_s=1.0)


class TestReportSatellites:
    def _tiny_report(self, wall_s):
        return ServeReport(
            results=[],
            wall_s=wall_s,
            mode="inline",
            workers=1,
            live=0,
            replayed=0,
            cache_hits=0,
            cache_misses=0,
        )

    def test_zero_wall_reports_zero_not_inf(self):
        report = self._tiny_report(0.0)
        assert report.points_per_s == 0.0
        assert report.sessions_per_s == 0.0
        (serve,) = report.records()
        assert serve["points_per_s"] == serve["sessions_per_s"] == 0.0
        assert f"{WALL_S_FLOOR:g}" in serve["wall_s_note"]

    def test_normal_wall_has_no_floor_note(self):
        (serve,) = self._tiny_report(0.5).records()
        assert "wall_s_note" not in serve
        assert serve["points_per_s"] == 0.0  # no points, real wall

    def test_one_interpreter_reports_one_worker_on_both_entry_points(self):
        """``workers`` sizes the shard pool; a call one interpreter
        served says 1 (``serve_sessions`` used to echo the argument)."""
        batch = serve_sessions([_spec("a")], mode="inline", workers=4, dedup=False)
        stream = serve_arrivals([(0.0, _spec("a"))], dedup=False)
        assert batch.workers == stream.workers == 1

    def test_summary_surfaces_op_cache_and_classes(self):
        spec = SessionSpec(
            name="s",
            points=(1.30, 1.34),
            op_cache=True,
            traffic_class="interactive",
        )
        report = serve_sessions(
            [spec], installation=SharedInstallation.standard(), dedup=False
        )
        serve, _, cls = report.records()
        # cold cache: first point is a cold solve, the second warm-starts
        # off the stored neighbour
        assert serve["op_miss"] == 1
        assert serve["op_near"] == 1
        assert serve["op_exact"] == 0
        assert cls["record"] == "class" and cls["class"] == "interactive"
        assert cls["offered"] == cls["served"] == 1
        assert cls["points"] == 2
        assert _class_ledgers(report)["interactive"].queue_wait.count == 1
        assert cls["e2e_p95_virtual_s"] == pytest.approx(
            report.results[0].end_to_end_s
        )

    def test_shed_sessions_add_no_latency_samples(self):
        report = serve_sessions(
            [
                SessionSpec(name="a", points=(1.30,), traffic_class="t"),
                SessionSpec(name="b", points=(1.34,), traffic_class="t"),
                SessionSpec(name="c", points=(1.38,), traffic_class="t"),
            ],
            dedup=False,
            admission=AdmissionPolicy(max_live=1, max_parked=1),
        )
        (cls,) = [r for r in report.records() if r["record"] == "class"]
        assert cls["class"] == "t"
        assert cls["shed"] == 1
        assert cls["served"] == 2
        assert _class_ledgers(report)["t"].queue_wait.count == 2

    def test_class_rows_on_a_mixed_batch_are_pinned(self):
        """A serve report's ``class`` records are the attempt level of
        one ``ClassLedger`` per class, in first-seen order.  The
        percentiles and sample moments below were produced by the
        hand-written per-class copy the ledger replaced, over completed,
        degraded, shed and replayed sessions in two classes plus the
        unlabelled default."""
        from repro.serve import SessionResult

        def row(name, cls, status="completed", points=0, virtual_s=0.0,
                wait_s=0.0, replayed=False, deadline_met=None):
            return SessionResult(
                name=name, workload_key=name, replayed=replayed,
                results=[{"thrust_N": 1.0}] * points, transient=None,
                virtual_s=virtual_s, digest="", traces=0, messages=0,
                payload_bytes=0, header_bytes=0, net_virtual_s=0.0,
                status=status, wait_s=wait_s, deadline_met=deadline_met,
                traffic_class=cls,
            )

        report = self._tiny_report(1.0)
        report.results = [
            row("a", "interactive", points=2, virtual_s=1.5, deadline_met=True),
            row("b", "batch", points=3, virtual_s=4.0, wait_s=0.5),
            row("c", "interactive", status="degraded", points=2, virtual_s=2.5,
                wait_s=1.0, deadline_met=False),
            row("d", "interactive", status="shed", wait_s=2.0, deadline_met=False),
            row("e", "", points=1, virtual_s=0.25, replayed=True),
            row("f", "batch", status="shed"),
            row("g", "interactive", points=2, virtual_s=1.5, wait_s=0.25,
                replayed=True, deadline_met=True),
        ]

        def row_of(name, **counters):
            base = dict.fromkeys(
                ("offered", "served", "completed", "degraded", "replayed",
                 "shed", "retries", "points", "good_points", "deadline_met",
                 "deadline_missed", "tasks", "tasks_with_deadline",
                 "tasks_met", "tasks_missed", "tasks_lost"), 0)
            return {"record": "class", "class": name, **base, **counters,
                    "deadline_met_rate": None}

        def one(label, x):
            return {f"{label}_p{p}_virtual_s": x for p in (50, 95, 99)}

        def once(x):
            return {"count": 1, "mean": x, "min": x, "max": x}

        stats = [r for r in report.records() if r["record"] == "class"]
        assert [r["class"] for r in stats] == ["interactive", "batch", "default"]
        assert stats == [
            {
                **row_of("interactive", offered=4, served=3, completed=2,
                         degraded=1, shed=1, replayed=1, points=6,
                         good_points=4, deadline_met=2, deadline_missed=2),
                "wait_p50_virtual_s": 0.25,
                "wait_p95_virtual_s": 0.9249999999999999,
                "wait_p99_virtual_s": 0.985,
                "e2e_p50_virtual_s": 1.75,
                "e2e_p95_virtual_s": 3.3249999999999997,
                "e2e_p99_virtual_s": 3.465,
            },
            {
                **row_of("batch", offered=2, served=1, completed=1, shed=1,
                         points=3, good_points=3),
                **one("wait", 0.5), **one("e2e", 4.5),
            },
            {
                **row_of("default", offered=1, served=1, completed=1,
                         replayed=1, points=1, good_points=1),
                **one("wait", 0.0), **one("e2e", 0.25),
            },
        ]
        ledgers = _class_ledgers(report)
        assert list(ledgers) == ["interactive", "batch", "default"]
        moments = {
            name: (_moments(led.queue_wait), _moments(led.end_to_end))
            for name, led in ledgers.items()
        }
        assert moments == {
            "interactive": (
                {"count": 3, "mean": 0.4166666666666667, "min": 0.0, "max": 1.0},
                {"count": 3, "mean": 2.25, "min": 1.5, "max": 3.5},
            ),
            "batch": (once(0.5), once(4.5)),
            "default": (once(0.0), once(0.25)),
        }
