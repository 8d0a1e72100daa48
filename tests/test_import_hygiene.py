"""The runtime package imports no test-only dependency.

``networkx``, ``hypothesis`` and ``scipy`` are declared under the
``[test]`` extra only, so a plain ``pip install`` of the package brings
numpy alone.  Each check runs in a fresh interpreter: this one has long
since imported all three for the tests themselves.
"""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.uts

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TEST_ONLY = ("networkx", "hypothesis", "scipy")


def run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRuntimeImportsNoTestDependency:
    def test_every_module_imports_without_them(self):
        out = run(f"""
            import importlib, pkgutil, sys
            for name in {TEST_ONLY!r}:
                sys.modules[name] = None  # any import of it now fails
            import repro

            def onerror(name):
                raise

            names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.", onerror)]
            for name in names:
                importlib.import_module(name)
            print(len(names))
        """)
        assert int(out) >= 100

    def test_the_serving_entry_points_leave_them_unimported(self):
        out = run(f"""
            import sys
            import repro.serve, repro.traffic
            print(sorted(name for name in {TEST_ONLY!r} if name in sys.modules))
        """)
        assert out.strip() == "[]"


#: what ``repro.uts`` exported only for tests; the interpreted twins live
#: on as oracles in ``tests/uts/oracle.py``
TEST_ONLY_UTS_NAMES = (
    "roundtrip_native", "roundtrip_native_interpreted", "check_compatibility",
    "zero_value", "values_equal", "identical",
    "encode_value", "encode_into", "decode_value", "encoded_size",
    "marshal_args", "marshal_args_into", "unmarshal_args",
)


class TestOneUTSCodec:
    def test_no_runtime_module_imports_the_tests(self):
        offenders = []
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                offenders += [f"{path.name}: {n}" for n in names
                              if n == "tests" or n.startswith("tests.")]
        assert offenders == []

    def test_the_interpreted_wire_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.uts.wire")

    def test_test_only_names_left_the_package(self):
        assert [n for n in TEST_ONLY_UTS_NAMES if hasattr(repro.uts, n)] == []
        assert set(TEST_ONLY_UTS_NAMES).isdisjoint(repro.uts.__all__)


#: what no user entry point reached and no paper claim needed: the
#: module compiler (``call_stubs`` is the one stub compiler), the
#: explicit graph router (``classify`` is the one routing model), and
#: the forwarders and arms only tests called
GONE_NAMES = {
    "repro.schooner": ("compile_stubs", "load_stub_module",
                       "render_c_header", "render_fortran_interface", "BreakerOpen"),
    "repro.schooner.stubgen": ("compile_stubs", "load_stub_module",
                               "client_stub_source", "server_stub_source",
                               "render_c_header", "render_fortran_interface"),
    "repro.traffic": ("LognormalArrivals", "TraceArrivals"),
    "repro.traffic.arrivals": ("LognormalArrivals", "TraceArrivals"),
    # checkpoints take the one snapshot (repro.schooner.lines.declared_state)
    # through the executable's take plan
    "repro.faults.checkpoint": ("_state_types",),
    "repro.schooner.lines": ("state_types",),
    # the circuit breakers: no run was refused by one or opened one
    "repro.schooner.errors": ("BreakerOpen",),
    "repro.resilience": ("BreakerPolicy", "CircuitBreaker", "BreakerBoard"),
    # a dead host is detected by the call that meets it: no sweeps
    "repro.faults.recovery": ("HEARTBEAT_INTERVAL_S",),
    # and a dead process too: no placement watches an exit count
    "repro.machines.process": ("exits",),
}

GONE_ATTRIBUTES = {
    ("repro.network", "Topology"): (
        "register", "add_link", "_links", "route", "route_transfer_seconds",
        "graph_path_hops", "_shortest_paths", "set_override", "_overrides",
        "transfer_seconds",
        # a pure function of a machine pair: cut routes are the fault
        # injector's, and the links are the module's constants
        "_partitioned", "_dead_gateways", "partition", "heal",
        "gateway_down", "gateway_restore",
        "ethernet", "campus", "internet", "loopback",
    ),
    # every session sends over the installation's one topology; a
    # detached injector is done, so nothing is left pending
    ("repro.serve.installation", "SharedInstallation"): ("session_topology",),
    ("repro.faults", "FaultInjector"): ("_pending",),
    # every run is supervised: the executive makes its supervisor
    ("repro.core", "NPSSExecutive"): ("serve", "run_resilient"),
    ("repro.core.advisor", "PlacementAdvisor"): ("recommend_move", "_move_cost"),
    ("repro.core", "SchoonerHost"): (
        "move_instance",
        # a component call rides its placement's wrapper (_compute) and
        # re-derives the placement only in _bind
        "_stub", "_duct_stub", "_shaft_stub", "_in_overlap_region",
    ),
    ("repro.schooner.stubs", "ClientStub"): (
        # folded into their one caller on the call path
        "_plan", "_deadline", "_breaker_gate",
        # a stub's name is its import signature's
        "name",
        # _resolve, the one failover trigger, returns whether it recovered
        "note_failover", "_recovered", "_consume_recovered",
    ),
    # a future holds a result; its member is charged to a plain Timeline
    ("repro.schooner.runtime", "CallFuture"): ("finished_at", "advance", "sync_to", "traces"),
    ("repro.tess", "ConvergentNozzle"): ("_require_sized",),
    # the traffic package's warm-up lens, rate rescaler and report
    # accessors, and the single-valued sweep and soak knobs
    ("repro.traffic", "PoissonArrivals"): ("at_rate",),
    ("repro.traffic", "ParetoArrivals"): ("at_rate",),
    ("repro.traffic", "TrafficReport"): ("warmup_s", "trimmed", "records"),
    ("repro.traffic", "TrafficStream"): ("sessions", "horizon_s"),
    ("repro.traffic", "TrafficMix"): ("by_name", "class_names"),
    ("repro.traffic", "SweepSpec"): ("warmup_s", "dedup"),
    ("repro.resilience.soak", "SoakConfig"): ("transport", "resilient_fraction"),
    # one serving mode: every session is supervised
    ("repro.serve.session", "SessionSpec"): ("resilient",),
    # accessors only their own tests called; a call's deadline is the
    # environment's, as the control ladder's is
    ("repro.schooner.runtime", "CallerContext"): ("now", "deadline"),
    ("repro.schooner.runtime", "CallBatch"): ("finished_at", "active_branch", "_opened",
                                              "_require_open"),
    # re-contacting a placement recovers nothing: the call that meets
    # a dead binding does
    ("repro.schooner.api", "ModuleContext"): ("connected", "_recover"),
    ("repro.schooner", "Manager"): ("call", "servers", "line", "line_error"),
    ("repro.serve.installation", "WorkloadCache"): ("peek",),
    ("repro.serve.opcache", "OpPointCache"): ("peek", "families"),
    ("repro.serve.session", "SessionResult"): ("degraded", "started_s"),
    # scheduled events are the one way virtual time triggers work: no
    # subscriber pass, no process-global write count
    ("repro.network.clock", "VirtualClock"): (
        "pending_events", "reset",
        "subscribe", "unsubscribe", "_subscribers", "_notified_at", "_fire_due_events",
    ),
    ("repro.schooner.lines", "_ProcessState"): ("all_writes", "writes"),
    ("repro.network.link", "LinkModel"): ("round_trip_seconds",),
    # a batch member or probe region builds its Timeline directly
    ("repro.network.clock", "Timeline"): ("branch",),
    ("repro.machines.host", "Machine"): ("installed_paths",),
    ("repro.machines.registry", "MachinePark"): ("at_site",),
    ("repro.parallel.pvm", "ScatterGatherResult"): ("slowest_worker",),
    ("repro.parallel.pvm", "PVMachine"): ("tasks", "halt"),
    # one restart path (Manager.restart): no cold restart without a
    # supervisor, so nothing counts one; restoring is the restart's
    ("repro.schooner.runtime", "SchoonerEnvironment"): ("unplanned_restarts", "breakers"),
    ("repro.faults.checkpoint", "CheckpointStore"): ("restore",),
    # a checkpoint keeps conformed values; the restore encodes them
    ("repro.faults.checkpoint", "Checkpoint"): ("nbytes", "blobs"),
    ("repro.faults", "FailoverSupervisor"): (
        "__enter__", "__exit__",
        # checkpoints follow declared-state writes, heartbeats a constant
        "checkpoint_interval_s", "_last_checkpoint_at", "_checkpoint_sweep",
        "heartbeat_interval_s", "_monitored_machines",
        # a count nothing read
        "heartbeats",
        # heartbeats and checkpoints are clock events, not a tick walk
        "_on_tick", "_walked_at_writes", "_saved", "_last_heartbeat_at",
        # no sweeps: a dead host is detected by the call that meets it,
        # and a checkpoint visits only the states written since the last
        "_heartbeat", "_heartbeat_due", "_heartbeat_sweep", "_databases",
        # the call that wrote a state checkpoints it: no clock event
        "_state_written", "_take_checkpoints", "_written", "_checkpoint",
    ),
    # single-valued: no stock mix, CLI path or workload set them
    ("repro.traffic", "TrafficClass"): ("resilient", "op_cache"),
    ("repro.solvers.base", "ODEResult"): ("at",),
    ("repro.tess.gas", "GasState"): ("as_dict", "from_dict"),
    ("repro.tess.schedules", "Schedule"): ("shifted", "scaled"),
    ("repro.tess.profile", "FlightProfile"): ("duration",),
    ("repro.tess.profile", "ProfileResult"): ("thrust_range",),
    # no shard session can spend a retry token: each episode
    # installation keeps its own budget, so nothing is leased or settled
    ("repro.resilience.budget", "RetryBudget"): ("lease", "absorb", "snapshot"),
    ("repro.serve.scheduler", "ServeReport"): ("retry_budget",),
}

#: single-valued parameters that became constants
GONE_PARAMETERS = {
    ("repro.traffic.driver", "settle_ledgers"): ("warmup_s",),
    # a checkpoint is of one process's records, not a line's
    ("repro.faults.checkpoint", "CheckpointStore.take"): ("line",),
    ("repro.serve.opcache", "OpPointCache.lookup"): ("count",),
    # single-valued soak knobs: every soak deduplicates and solo-checks
    ("repro.resilience.soak", "SoakConfig"): ("dedup",),
    ("repro.resilience.soak", "run_soak"): ("solo_check",),
    ("repro.serve.installation", "SharedInstallation.session_env"): ("private_topology",),
}


class TestUnreachedCodeStaysGone:
    @pytest.mark.parametrize("module", sorted(GONE_NAMES))
    def test_deleted_names_left_the_package(self, module):
        mod = importlib.import_module(module)
        names = GONE_NAMES[module]
        assert [n for n in names if hasattr(mod, n)] == []
        assert set(names).isdisjoint(getattr(mod, "__all__", ()))

    @pytest.mark.parametrize("owner", sorted(GONE_ATTRIBUTES), ids=lambda o: o[1])
    def test_deleted_attributes_left_their_class(self, owner):
        module, cls_name = owner
        cls = getattr(importlib.import_module(module), cls_name)
        fields = getattr(cls, "__dataclass_fields__", {})
        names = GONE_ATTRIBUTES[owner]
        assert [n for n in names if hasattr(cls, n) or n in fields] == []

    @pytest.mark.parametrize("owner", sorted(GONE_PARAMETERS), ids=lambda o: o[1])
    def test_deleted_parameters_left_their_function(self, owner):
        module, qualname = owner
        fn = importlib.import_module(module)
        for part in qualname.split("."):
            fn = getattr(fn, part)
        params = inspect.signature(fn).parameters
        assert [n for n in GONE_PARAMETERS[owner] if n in params] == []

    def test_the_breaker_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.resilience.breaker")

    def test_lognormal_is_no_arrival_kind(self):
        from repro.traffic import make_process

        with pytest.raises(ValueError, match="lognormal"):
            make_process("lognormal", 1.0)
