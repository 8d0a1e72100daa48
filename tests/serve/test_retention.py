"""A finished session keeps what it served, not its calls.

A session's :class:`~repro.schooner.runtime.CallTrace` list is read
once, when the session finishes: hashed into its digest, counted, and
asked whether a call failed, was retried or failed over.  The record
(and so the installation's workload cache, which keeps it for the
installation's lifetime) holds those three answers, and the traces die
with the session's environment.
"""

from __future__ import annotations

import gc

from repro.schooner.runtime import CallTrace
from repro.schooner.tracing import trace_digest
from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.serve.admission import AdmissionCore
from repro.serve.session import SessionContext


def live_call_traces() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is CallTrace)


def cold_batch():
    """24 cold sessions, four of each of six workloads: with dedup the
    first of each runs live and the other three replay its record."""
    return [
        SessionSpec(name=f"s{copy}-{k}", points=(1.30 + 0.02 * k,))
        for copy in range(4)
        for k in range(6)
    ]


class TestAServeKeepsNoCallTrace:
    def test_installation_cache_report_and_contexts_hold_none(self, monkeypatch):
        contexts = []
        offer = AdmissionCore.offer

        def kept(self, *args):
            contexts.append(offer(self, *args))
            return contexts[-1]

        monkeypatch.setattr(AdmissionCore, "offer", kept)
        installation = SharedInstallation.standard()
        before = live_call_traces()
        report = serve_sessions(cold_batch(), installation=installation, dedup=True)
        assert (report.live, report.replayed, len(installation.cache)) == (6, 18, 6)
        assert len(contexts) == 24 and all(ctx.done for ctx in contexts)
        assert all(r.traces > 0 and r.status == "completed" for r in report.results)
        # the installation, its cache, the report and every finished
        # context are alive here, and none of them reaches a call
        assert live_call_traces() == before
        for ctx in contexts:
            assert ctx.record.traces == ctx.result().traces
            assert ctx.record.digest == ctx.result().digest

    def test_the_record_sums_up_the_session_s_traces(self):
        installation = SharedInstallation.standard()
        ctx = SessionContext(SessionSpec(name="solo", points=(1.30,)), installation)
        ctx.run_next_step()  # set-up
        ctx.run_next_step()  # the point
        traces = list(ctx.env.traces)
        record = ctx._capture()
        assert record.digest == trace_digest(traces)
        assert record.traces == len(traces) > 0
        assert record.impacted is False
        traces[-1].retries = 1  # as if the last call had been retried
        assert ctx._capture().impacted is True
        while not ctx.done:
            ctx.run_next_step()
        result = ctx.result()
        assert result.status == "degraded" and result.digest == trace_digest(traces)
        assert not installation.cache.get(ctx.key, count=False)
