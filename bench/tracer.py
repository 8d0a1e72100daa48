"""The traced pass: spans around each layer's public callables, recorded
from outside the program.

Nothing under ``src/`` knows about this file.  ``Tracer.install()``
rebinds the seams listed in ``_SEAMS`` — class attributes where the
callable is a method, the *importing* module's global where a module
took a function by value (``repro.schooner.stubs.execute_call``,
``repro.tess.engine.newton_raphson``, ...) — the same seam-wrapping
``repro.core.perf.instrumented`` does for the transient hot loop, and
``uninstall()`` puts every original back.

Attribution is exclusive: a span's self time is its duration minus the
part its child spans cover, so the per-layer ``*_self_s`` keys plus
``harness.unattributed_s`` (the root span's own self time) add up to
the traced root wall exactly.  Inline serving is single-threaded, so
one span stack is enough; shard workers are other processes and a
forked child drops the wrappers (``os.register_at_fork``), so on
``steady_cold_shard2`` the spans are the parent's and worker time
comes from ``ServeReport.shard_rows``.

Aggregates are kept for every span; full spans (name, layer, start,
end, parent, session) only for the sessions the caller names, capped at ``MAX_KEPT_SPANS``, and written out in Chrome trace-event
form when the run ends.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MAX_KEPT_SPANS = 20000

#: (owner, attribute, self-time key, call-count key or None).  The owner
#: is "module" or "module:Class"; the self-time key is the per-layer
#: metric the span's exclusive wall is charged to.
_SEAMS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    # serve.scheduler — the public entry points (both bindings of each)
    ("repro.serve.scheduler", "serve_sessions", "serve.scheduler.self_s", None),
    ("repro.serve", "serve_sessions", "serve.scheduler.self_s", None),
    ("repro.serve.scheduler", "serve_arrivals", "serve.scheduler.self_s", None),
    ("repro.traffic.driver", "serve_arrivals", "serve.scheduler.self_s", None),
    # serve.shards / serve.shm — parent side
    ("repro.serve.shards", "serve_sessions_sharded", "serve.shards.parent_self_s", None),
    ("repro.serve.shards:ShardPool", "__init__", "serve.shards.spawn_s", None),
    ("repro.serve.shards:ShardPool", "close", "serve.shards.parent_self_s", None),
    # traffic
    ("repro.traffic.driver", "run_traffic", "traffic.ledger_self_s", None),
    ("repro.traffic", "run_traffic", "traffic.ledger_self_s", None),
    ("repro.traffic.driver", "settle_ledgers", "traffic.ledger_self_s", None),
    # core
    ("repro.core.executive:NPSSExecutive", "__init__", "core.executive_build_self_s", None),
    ("repro.core.executive:NPSSExecutive", "build_f100_network", "core.executive_build_self_s", None),
    ("repro.core.executive:NPSSExecutive", "engine", "core.executive_build_self_s", None),
    ("repro.core.executive:NPSSExecutive", "clear_network", "core.executive_build_self_s", None),
    ("repro.core.schooner_host:SchoonerHost", "setup", "core.host_self_s", None),
    ("repro.core.schooner_host:SchoonerHost", "duct", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "combustor", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "nozzle", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "shaft_accel", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "duct_pair", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "shaft_accel_pair", "core.host_self_s", "core.host_calls"),
    ("repro.core.schooner_host:SchoonerHost", "jacobian", "core.host_self_s", "core.host_calls"),
    # avs
    ("repro.avs.editor:NetworkEditor", "add_module", "avs.self_s", None),
    ("repro.avs.editor:NetworkEditor", "connect", "avs.self_s", "avs.connect_calls"),
    ("repro.avs.editor:NetworkEditor", "clear", "avs.self_s", None),
    # tess — engine side, and the adapted component bodies
    ("repro.tess.engine:TwinSpoolTurbofan", "evaluate", "tess.self_s", "tess.evaluate_calls"),
    ("repro.tess.components:Shaft", "accel", "tess.components_self_s", None),
    ("repro.tess.components:Duct", "run", "tess.components_self_s", None),
    ("repro.tess.components:Combustor", "burn", "tess.components_self_s", None),
    ("repro.tess.components:ConvergentNozzle", "flow_capacity", "tess.components_self_s", None),
    ("repro.tess.components:ConvergentNozzle", "net_thrust", "tess.components_self_s", None),
    # solvers — as bound where they are called
    ("repro.tess.engine", "integrate", "solvers.self_s", None),
    ("repro.core.schooner_host", "fd_jacobian", "solvers.self_s", None),
    # schooner
    ("repro.schooner.stubs:ClientStub", "__call__", "schooner.self_s", None),
    ("repro.schooner.stubs:ClientStub", "begin", "schooner.self_s", None),
    ("repro.schooner.runtime:CallBatch", "wait", "schooner.self_s", None),
    ("repro.schooner.stubs", "execute_call", "schooner.self_s", None),
    ("repro.schooner.manager:Manager", "start_remote", "schooner.manager_self_s", None),
    ("repro.schooner.manager:Manager", "quit_line", "schooner.manager_self_s", None),
    ("repro.schooner.api:ModuleContext", "sch_contact_schx", "schooner.manager_self_s", None),
    # uts
    ("repro.uts.spec:SpecFile", "parse", "uts.parse_self_s", "uts.parse_calls"),
    ("repro.schooner.runtime", "conform_args", "uts.conform_self_s", None),
    ("repro.uts.compiled:SignatureCodec", "encode_conformed_into", "uts.codec_self_s", None),
    ("repro.uts.compiled:SignatureCodec", "unmarshal", "uts.codec_self_s", None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


_ACTIVE: Optional["Tracer"] = None


def _drop_in_forked_child() -> None:
    # a forked shard worker inherits the parent's rebound seams; put the
    # originals back so workers run the program as shipped
    if _ACTIVE is not None:
        _ACTIVE.uninstall()


os.register_at_fork(after_in_child=_drop_in_forked_child)


class Tracer:
    def __init__(self, keep_sessions: Optional[List[str]] = None) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # frame = [start, seconds covered by children, kept-span id]
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: every (owner, attribute) install() rebound, kept after
        #: uninstall() so a check can look at what is bound there now
        self.rebound: List[Tuple[object, str]] = []
        self._keep_names = set(keep_sessions or ())
        self._keeping = False
        self._session = ""
        self._engine_depth = 0
        self.spans: List[list] = []  # [name, key, start, end, parent id, session]
        self.spans_dropped = 0
        self.root_wall_s = 0.0

    # ------------------------------------------------------------ span core
    def _wrap(self, fn: Callable, name: str, key: str,
              count_key: Optional[str] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span charged to ``key``.  ``after(result,
        args, kwargs)`` runs on normal return, inside the span, for
        counts that need the result."""
        stack, self_s, counts = self._stack, self.self_s, self.counts
        tracer = self

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0, -1]
            if tracer._keeping:
                frame[2] = tracer._open_span(name, key)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                took = end - frame[0]
                self_s[key] += took - frame[1]
                if count_key is not None:
                    counts[count_key] += 1
                if stack:
                    stack[-1][1] += took
                if frame[2] >= 0:
                    tracer.spans[frame[2]][3] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _open_span(self, name: str, key: str) -> int:
        if len(self.spans) >= MAX_KEPT_SPANS:
            self.spans_dropped += 1
            return -1
        parent = -1
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                parent = frame[2]
                break
        self.spans.append([name, key, perf_counter(), None, parent, self._session])
        return len(self.spans) - 1

    def root(self, fn: Callable, *args, **kwargs):
        """Run the workload's public call(s) as the root span; its own
        self time is ``harness.unattributed_s``."""
        traced = self._wrap(fn, "root", "harness.unattributed_s")
        start = perf_counter()
        try:
            return traced(*args, **kwargs)
        finally:
            self.root_wall_s += perf_counter() - start

    # ------------------------------------------------------------- install
    def install(self) -> None:
        global _ACTIVE
        for owner_path, attr, key, count_key in _SEAMS:
            owner = _resolve(owner_path)
            self._rebind(owner, attr, f"{owner_path.split(':')[-1]}.{attr}", key, count_key)
        self._install_special()
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        _ACTIVE = None

    def _rebind(self, owner, attr: str, name: str, key: str,
                count_key: Optional[str] = None,
                after: Optional[Callable] = None,
                make: Optional[Callable] = None) -> None:
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        self.rebound.append((owner, attr))
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapped = make(fn) if make is not None else self._wrap(fn, name, key, count_key, after)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)

    # --------------------------------------------- seams that read results
    def _install_special(self) -> None:
        counts = self.counts
        tracer = self

        # serve.session: one span per step; the setup step has its own
        # key, and the step boundary is where the session id changes
        def make_step(fn):
            setup = tracer._wrap(fn, "SessionContext.setup", "serve.session.setup_self_s",
                                 "serve.session.steps")
            other = tracer._wrap(fn, "SessionContext.step", "serve.session.self_s",
                                 "serve.session.steps")

            def run_next_step(ctx):
                outer = (tracer._session, tracer._keeping)
                tracer._session = ctx.spec.name
                tracer._keeping = ctx.spec.name in tracer._keep_names
                try:
                    return (setup if ctx.env is None and not ctx.done else other)(ctx)
                finally:
                    tracer._session, tracer._keeping = outer

            return run_next_step

        self._rebind(_resolve("repro.serve.session:SessionContext"), "run_next_step",
                     "", "", make=make_step)

        # serve.opcache
        def after_lookup(ws, args, kwargs):
            if kwargs.get("count", args[3] if len(args) > 3 else True):
                counts["serve.opcache.lookups"] += 1
                kind = {"exact": "exact_hits", "miss": "misses"}.get(ws.kind, "near_hits")
                counts[f"serve.opcache.{kind}"] += 1

        cache = _resolve("repro.serve.opcache:OpPointCache")
        self._rebind(cache, "lookup", "OpPointCache.lookup", "serve.opcache.self_s",
                     after=after_lookup)
        self._rebind(cache, "store", "OpPointCache.store", "serve.opcache.self_s",
                     "serve.opcache.stores")

        # tess engine: balance / transient open the "inside a solve" window
        def make_engine(name, count_key, after=None):
            def make(fn):
                inner = tracer._wrap(fn, f"TwinSpoolTurbofan.{name}", "tess.self_s",
                                     count_key, after)

                def engine_call(*args, **kwargs):
                    tracer._engine_depth += 1
                    try:
                        return inner(*args, **kwargs)
                    finally:
                        tracer._engine_depth -= 1

                return engine_call

            return make

        def after_transient(res, args, kwargs):
            counts["tess.transient_steps"] += len(res.t)

        engine = _resolve("repro.tess.engine:TwinSpoolTurbofan")
        self._rebind(engine, "balance", "", "", make=make_engine("balance", "tess.balance_calls"))
        self._rebind(engine, "transient", "", "",
                     make=make_engine("transient", None, after_transient))

        # solvers: newton_raphson as the engine bound it
        def make_newton(fn):
            def after(report, args, kwargs):
                counts["solvers.iterations"] += report.iterations
                counts["solvers.fevals"] += report.fevals
                counts["solvers.jac_rebuilds"] += report.jac_rebuilds
                if not report.converged:
                    counts["solvers.nonconverged"] += 1

            inner = tracer._wrap(fn, "newton_raphson", "solvers.self_s", "solvers.solves", after)

            def newton_raphson(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except Exception:
                    counts["solvers.nonconverged"] += 1
                    raise

            return newton_raphson

        self._rebind(_resolve("repro.tess.engine"), "newton_raphson", "", "", make=make_newton)

        # schooner: every CallTrace passes record_trace exactly once; it
        # is a counter, not a span (the call itself is timed above)
        def make_record(fn):
            def record_trace(env, trace):
                counts["schooner.calls"] += 1
                if tracer._engine_depth:
                    counts["schooner.solve_calls"] += 1
                if trace.dispatch == "overlap":
                    counts["schooner.overlap_calls"] += 1
                counts["schooner.retries"] += trace.retries
                counts["schooner.virtual_cpu_s"] += trace.client_cpu_s + trace.server_cpu_s
                counts["uts.wire_bytes"] += trace.request_bytes + trace.reply_bytes
                counts["network.virtual_s"] += trace.network_s
                counts["machines.virtual_compute_s"] += trace.compute_s
                if trace.outcome == "deadline":
                    counts["resilience.deadline_refusals"] += 1
                return fn(env, trace)

            return record_trace

        self._rebind(_resolve("repro.schooner.runtime:SchoonerEnvironment"), "record_trace",
                     "", "", make=make_record)

        # uts native plans: the lookup stays in the caller's self time,
        # the callables it hands out are the spans
        def make_native(fn):
            plans: Dict[int, Callable] = {}

            def native_roundtrip_for(fmt, t, policy):
                plan = fn(fmt, t, policy)
                traced = plans.get(id(plan))
                if traced is None:
                    traced = plans[id(plan)] = tracer._wrap(
                        plan, "native_roundtrip", "uts.native_self_s")
                return traced

            return native_roundtrip_for

        self._rebind(_resolve("repro.schooner.runtime"), "native_roundtrip_for", "", "",
                     make=make_native)

        # network
        from repro.network.topology import NetworkError

        def make_send(fn):
            inner = tracer._wrap(fn, "Transport.send", "network.self_s", "network.sends")

            def send(*args, **kwargs):
                # send(self, src, dst, kind, body, nbytes, ...)
                counts["network.payload_bytes"] += kwargs["nbytes"] if "nbytes" in kwargs else args[5]
                try:
                    return inner(*args, **kwargs)
                except NetworkError:
                    counts["network.drops"] += 1
                    raise

            return send

        self._rebind(_resolve("repro.network.transport:Transport"), "send", "", "", make=make_send)

        # serve.shards frames and waits; serve.shm codec and rings
        pool = _resolve("repro.serve.shards:ShardPool")
        self._rebind(pool, "send", "ShardPool.send", "serve.shards.parent_self_s",
                     "serve.shards.frames")
        self._rebind(pool, "recv", "ShardPool.recv", "serve.shards.recv_wait_s",
                     "serve.shards.frames")

        shm = _resolve("repro.serve.shm")

        def make_encode(fn):
            inner = tracer._wrap(fn, "encode_payload_into", "serve.shm.codec_self_s")

            def encode_payload_into(buf, obj):
                before = len(buf)
                inner(buf, obj)
                counts["serve.shards.wire_bytes"] += len(buf) - before

            return encode_payload_into

        def after_decode(result, args, kwargs):
            counts["serve.shards.wire_bytes"] += len(args[0])

        self._rebind(shm, "encode_payload_into", "", "", make=make_encode)
        self._rebind(shm, "decode_payload", "decode_payload", "serve.shm.codec_self_s",
                     after=after_decode)

        def after_ring_write(offset, args, kwargs):
            if offset is None:
                counts["serve.shm.pipe_fallbacks"] += 1
            else:
                counts["serve.shm.ring_bytes"] += len(args[1])

        def after_ring_read(data, args, kwargs):
            counts["serve.shm.ring_bytes"] += len(data)

        ring = _resolve("repro.serve.shm:ShmRing")
        self._rebind(ring, "write", "ShmRing.write", "serve.shm.codec_self_s",
                     after=after_ring_write)
        self._rebind(ring, "read", "ShmRing.read", "serve.shm.codec_self_s",
                     after=after_ring_read)

    # -------------------------------------------------------------- output
    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace events (``ph: X``, microseconds
        from the first kept span)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = self.spans[0][2]
        events = []
        for i, (name, key, start, end, parent, session) in enumerate(self.spans):
            events.append({
                "name": name,
                "cat": key.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round(((end or start) - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": parent, "session": session},
            })
        return {"traceEvents": events, "spans_dropped": self.spans_dropped}
