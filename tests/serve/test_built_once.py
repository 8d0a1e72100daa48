"""Session set-up does per-session work only.

What is a pure function of installation-wide immutable inputs is built
once: the four adapted-module executables when the installation is
built, the design closure and the deck digest once per engine deck, the
checked Figure-2 network by the first session that opens it, a
session's workload and family keys once per distinct value.  Opening a
session over a built installation parses no spec, installs no
executable, sizes no engine and wires no network — and none of that may
move a digest, a virtual time or a result (each served row equals the
committed contract's row of that session, ``tests/contract/golden.json``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.avs import NetworkEditor
from repro.core import NPSSExecutive
from repro.core.specs import REMOTE_PATHS, install_tess_executables
from repro.core.tess_modules import DuctModule
from repro.faults import FaultPlan
from repro.machines.host import Machine
from repro.schooner.runtime import SchoonerEnvironment
from repro.serve import SessionSpec, SharedInstallation, serve_sessions
from repro.serve.session import SessionContext
from repro.tess import opkey
from repro.tess.atmosphere import FlightCondition
from repro.tess.engine import TwinSpoolTurbofan, design_closure, sized_deck
from repro.tess.f100 import F100_SPEC
from repro.uts import spec as uts_spec

from tests.contract.golden import expected, session_row
from tests.contract.scenarios import from_lerc, mixed_batch


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test here starts from empty sizing and deck-key memos, so
    none depends on what an earlier test (in this file or any other)
    happened to size."""
    sized_deck.cache_clear()
    opkey.deck_key.cache_clear()
    yield


class Counter:
    """Records the arguments of every call through a patched attribute,
    then calls on."""

    def __init__(self, monkeypatch, owner, name):
        self.seen = []
        original = getattr(owner, name)

        def counted(*args, **kw):
            self.seen.append(args)
            return original(*args, **kw)

        monkeypatch.setattr(owner, name, counted)

    @property
    def calls(self):
        return len(self.seen)


def count_builds(monkeypatch):
    """(spec parses, executable installs) from here on."""
    # every parse goes through SpecFile.parse, which calls this binding
    parses = Counter(monkeypatch, uts_spec, "parse_spec")
    installs = Counter(monkeypatch, Machine, "install")
    return parses, installs


def installed(park):
    return {
        (machine.hostname, path): machine.executable_at(path)
        for machine in park
        for path in REMOTE_PATHS.values()
    }


def held(report):
    """Each session's row, and the contract's row of that session."""
    golden = expected("batch/mixed")
    return (
        {r.name: session_row(r) for r in report.results},
        {r.name: golden[r.name] for r in report.results},
    )


def running(installation):
    return sum(len(machine.running_processes) for machine in installation.park)


class TestExecutablesBuiltOnce:
    def test_serving_over_a_built_installation_builds_nothing(self, monkeypatch):
        installation = SharedInstallation.standard()
        before = installed(installation.park)
        parses, installs = count_builds(monkeypatch)
        report = serve_sessions(mixed_batch(), installation=installation, dedup=False)
        assert (parses.calls, installs.calls) == (0, 0)
        after = installed(installation.park)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        mine, golden = held(report)
        assert mine == golden

    def test_the_installation_parses_each_spec_once(self, monkeypatch):
        parses, installs = count_builds(monkeypatch)
        installation = SharedInstallation.standard()
        assert parses.calls == len(REMOTE_PATHS)
        assert installs.calls == len(REMOTE_PATHS) * len(list(installation.park))

    def test_a_standalone_executive_still_installs_and_balances(self, monkeypatch):
        parses, installs = count_builds(monkeypatch)
        ex = NPSSExecutive()
        assert parses.calls == len(REMOTE_PATHS)
        assert installs.calls == len(REMOTE_PATHS) * len(list(ex.env.park))
        ex.build_f100_network()
        op = ex.run_simulation()
        assert op.converged
        # a second executive over the same environment builds nothing
        NPSSExecutive(env=ex.env)
        assert parses.calls == len(REMOTE_PATHS)

    def test_only_the_missing_pair_is_filled(self, monkeypatch):
        env = SchoonerEnvironment.standard()
        install_tess_executables(env.park)
        before = installed(env.park)
        victim = list(env.park)[2]
        path = REMOTE_PATHS["duct"]
        del victim._executables[path]  # no public uninstall
        parses, installs = count_builds(monkeypatch)
        install_tess_executables(env.park)
        assert [(m.hostname, p) for m, p, _ in installs.seen] == [(victim.hostname, path)]
        assert parses.calls == 1
        after = installed(env.park)
        assert all(after[k] is before[k] for k in before if k != (victim.hostname, path))
        assert after[(victim.hostname, path)].name == "npss-duct"


class TestEnginesSizedOncePerDeck:
    def test_equal_decks_share_components_but_not_arrays(self):
        a = TwinSpoolTurbofan(F100_SPEC)
        b = TwinSpoolTurbofan(replace(F100_SPEC))  # equal, not identical
        assert sized_deck.cache_info().misses == 1
        for name in ("fan", "hpc", "hpt", "lpt", "nozzle", "duct_mixer", "low_shaft"):
            assert getattr(a, name) is getattr(b, name)
        assert a._design_x is not b._design_x and a._last_x is not b._last_x
        pristine = b.design_x
        a._design_x[:] = -1.0
        a._last_x[:] = -2.0
        assert np.array_equal(b.design_x, pristine)
        assert np.array_equal(b._last_x, pristine)
        assert np.array_equal(TwinSpoolTurbofan(F100_SPEC).design_x, pristine)

    def test_a_widget_owned_field_sizes_its_own_deck(self):
        base = TwinSpoolTurbofan(F100_SPEC)
        other = TwinSpoolTurbofan(replace(F100_SPEC, nozzle_cd=0.95))
        assert sized_deck.cache_info().misses == 2
        assert other.nozzle is not base.nozzle
        assert other.nozzle.cd == 0.95 and base.nozzle.cd == F100_SPEC.nozzle_cd
        assert other.nozzle.area_m2 != base.nozzle.area_m2

    def test_memoised_sizing_equals_the_closure_bitwise(self):
        for spec in (F100_SPEC, replace(F100_SPEC, bleed_fraction=0.03)):
            fresh = design_closure(spec)
            engine = TwinSpoolTurbofan(spec)
            assert engine.design_x.tobytes() == np.array(fresh.design_x).tobytes()
            assert engine._design_core_flow == fresh.design_core_flow
            assert sized_deck(spec) == fresh and sized_deck(spec) is not fresh

    def test_int_and_float_spellings_of_a_deck_do_not_share_an_entry(self):
        as_float = replace(F100_SPEC, low_inertia=2.0)
        as_int = replace(F100_SPEC, low_inertia=2)
        assert as_int == as_float
        assert opkey.deck_key(as_float) != opkey.deck_key(as_int)
        assert opkey.deck_key(as_int) == opkey.deck_key.__wrapped__(as_int)
        assert isinstance(TwinSpoolTurbofan(as_float).low_shaft.inertia, float)
        assert isinstance(TwinSpoolTurbofan(as_int).low_shaft.inertia, int)

    def test_the_memos_are_bounded(self):
        for i in range(80):
            spec = replace(F100_SPEC, nozzle_cd=0.90 + i / 1000)
            sized_deck(spec)
            opkey.deck_key(spec)
        assert sized_deck.cache_info().currsize == 64
        assert opkey.deck_key.cache_info().currsize == 64


class TestAnInstallationKeepsNoDeadProcesses:
    def test_processes_of_finished_sessions_are_collected(self, monkeypatch):
        """A machine used to keep every process it ever spawned (seven
        per served session, with their state memory) in a list nothing
        read — 3.4 KB per session for the life of the installation, the
        long-running server's whole point."""
        spawned = []
        real_spawn = Machine.spawn

        def spawn(machine, path):
            proc = real_spawn(machine, path)
            spawned.append(weakref.ref(proc))
            return proc

        monkeypatch.setattr(Machine, "spawn", spawn)
        installation = SharedInstallation.standard()
        for batch in range(3):
            specs = [
                SessionSpec(name=f"s{batch}-{i}", points=(1.30 + 0.01 * i,))
                for i in range(20)
            ]
            serve_sessions(specs, installation=installation)
        gc.collect()
        assert len(spawned) >= 3 * 7, "sessions must actually spawn processes"
        assert not [ref for ref in spawned if ref() is not None]



class TestTheFigureIsWiredOncePerInstallation:
    def test_a_mixed_batch_opens_copies_of_one_checked_network(self, monkeypatch):
        """Two AVS machines and a private topology (the fault plan): one
        park, so one saved network."""
        installation = SharedInstallation.standard()
        assert installation.park.saved_networks == {}  # nothing is wired before a session asks
        adds = Counter(monkeypatch, NetworkEditor, "add_module")
        connects = Counter(monkeypatch, NetworkEditor, "connect")
        report = serve_sessions(mixed_batch() + [from_lerc()], installation=installation,
                                dedup=False)
        assert (adds.calls, connects.calls) == (16, 18)
        assert list(installation.park.saved_networks) == ["f100"]
        mine, golden = held(report)
        assert len(mine) == 5 and mine == golden
        serve_sessions(mixed_batch(), installation=installation, dedup=False)
        assert (adds.calls, connects.calls) == (16, 18)
        assert running(installation) == 0

    def test_a_session_s_network_is_its_own(self):
        installation = SharedInstallation.standard()
        first = SessionContext(SessionSpec(name="a", points=(1.30,), altitude_m=3000.0), installation)
        second = SessionContext(SessionSpec(name="b", points=(1.30,)), installation, seq=1)
        first.run_next_step()
        second.run_next_step()
        figure = installation.park.saved_networks["f100"][0]
        mine, other = (ctx.executive.editor.module("inlet") for ctx in (first, second))
        assert (mine.param("altitude"), other.param("altitude")) == (3000.0, 0.0)
        assert figure.module("inlet").param("altitude") == 0.0
        assert figure.module("nozzle").param("remote machine") == "<local>"
        for ctx in (first, second):
            ctx.fail(RuntimeError("done"))
        assert running(installation) == 0


class TestTeardownLeavesNoProcessBehind:
    """A module whose destroy raises used to end ``editor.clear()`` at
    that module and skip ``host.destroy_all()``: six of a Table-2
    session's seven remote processes stayed on the shared park."""

    @pytest.fixture
    def stubborn_core_duct(self, monkeypatch):
        real = DuctModule.destroy
        raised = []

        def destroy(module):
            if module.role == "duct:core" and not raised:  # the first one only
                raised.append(module)
                raise RuntimeError("core duct would not die")
            real(module)

        monkeypatch.setattr(DuctModule, "destroy", destroy)

    def test_through_fail(self, stubborn_core_duct):
        installation = SharedInstallation.standard()
        ctx = SessionContext(SessionSpec(name="s", points=(1.30,)), installation)
        ctx.run_next_step()
        assert running(installation) == 7
        ctx.fail(ValueError("a step blew up"))
        assert running(installation) == 0
        result = ctx.result()
        assert result.status == "degraded"
        assert result.error == (
            "ValueError: a step blew up (teardown: core duct would not die)"
        )

    def test_through_finalize(self, stubborn_core_duct):
        installation = SharedInstallation.standard()
        ctx = SessionContext(SessionSpec(name="s", points=(1.30,)), installation)
        with pytest.raises(RuntimeError, match="core duct would not die"):
            while not ctx.done:
                ctx.run_next_step()
        assert running(installation) == 0

    def test_the_serve_loop_contains_it_and_the_next_session_is_clean(self, stubborn_core_duct):
        installation = SharedInstallation.standard()
        report = serve_sessions(
            [SessionSpec(name="first", points=(1.31,)), mixed_batch()[0]],
            installation=installation, dedup=False,
        )
        first, steady = report.results
        assert first.status == "degraded" and "core duct would not die" in first.error
        # the next session met a park with nobody else's processes on it
        assert session_row(steady) == expected("batch/mixed")["steady"]
        assert running(installation) == 0


def reference_workload_key(spec):
    """``SessionSpec.workload_key`` as it was computed per session."""
    payload = json.dumps(
        {
            "points": list(spec.points),
            "placement": sorted(spec.placement.items()),
            "altitude_m": spec.altitude_m,
            "mach": spec.mach,
            "transient_s": spec.transient_s,
            "transient_dt": spec.transient_dt,
            "avs_machine": spec.avs_machine,
            "dispatch": spec.dispatch,
            "deadline_s": spec.deadline_s,
            "op_cache": spec.op_cache,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_op_family(spec):
    if not spec.op_cache or spec.fault_plan is not None:
        return None
    return opkey.combine_keys(
        opkey.flight_key(FlightCondition(altitude_m=spec.altitude_m, mach=spec.mach)),
        opkey.context_key(placement=dict(spec.placement), dispatch=spec.dispatch),
    )


class TestSessionKeysComputedOncePerValue:
    #: one other value for every trace-determining field, then the int
    #: and bool spellings that compare equal to a float one
    OTHER = (
        {"points": (1.31, 1.35)},
        {"placement": {"nozzle": "sgi4d420.lerc.nasa.gov"}},
        {"altitude_m": 3000.0},
        {"mach": 0.6},
        {"transient_s": 0.2},
        {"transient_dt": 0.01},
        {"avs_machine": "lerc-sparc10"},
        {"dispatch": "sync"},
        {"deadline_s": 30.0},
        {"op_cache": False},
        {"points": (1, 2)},
        {"points": (1.0, 2.0)},
        {"points": [1.0, 2.0, 3.0]},
        {"altitude_m": 3000},
        {"deadline_s": 30},
        {"transient_s": 0.2, "op_cache": False},
    )

    def variants(self):
        base = SessionSpec(name="base", op_cache=True)
        return [base] + [replace(base, **other) for other in self.OTHER]

    def test_memoised_keys_equal_the_unmemoised_ones(self):
        specs = self.variants()
        keys = [spec.workload_key() for spec in specs]
        assert keys == [reference_workload_key(spec) for spec in specs]
        # (1.0, 2.0) and [1.0, 2.0, 3.0] aside, every variant is its own workload
        assert len(set(keys)) == len(keys)
        families = [spec.op_family() for spec in specs]
        assert families == [reference_op_family(spec) for spec in specs]
        # and again, now every one of them out of the memo
        assert [spec.workload_key() for spec in specs] == keys
        assert [spec.op_family() for spec in specs] == families

    def test_labels_and_scheduling_hints_do_not_split_a_key(self):
        base = SessionSpec(name="base", op_cache=True)
        twin = replace(base, name="twin", priority=3, traffic_class="batch")
        assert twin.workload_key() == base.workload_key()
        assert twin.op_family() == base.op_family()

    def test_placement_order_neither_splits_nor_merges(self):
        forward = {"nozzle": "sgi4d420.lerc.nasa.gov", "combustor": "sgi4d340.cs.arizona.edu"}
        backward = dict(reversed(forward.items()))
        swapped = dict(zip(forward, reversed(forward.values())))
        a, b, c = (SessionSpec(name="s", placement=p, op_cache=True)
                   for p in (forward, backward, swapped))
        assert list(a.placement) != list(b.placement)
        assert a.workload_key() == b.workload_key() == reference_workload_key(b)
        assert a.op_family() == b.op_family() == reference_op_family(b)
        assert c.workload_key() == reference_workload_key(c) != a.workload_key()
        assert c.op_family() == reference_op_family(c) != a.op_family()

    def test_a_fault_plan_or_no_opt_in_has_no_family(self):
        plan = FaultPlan(seed=1, events=())
        assert SessionSpec(name="s").op_family() is None
        assert SessionSpec(name="s", op_cache=True, fault_plan=plan).op_family() is None

    def test_the_key_memos_are_bounded(self):
        from repro.serve import session

        for i in range(80):
            spec = SessionSpec(name="s", points=(1.30 + i / 1000,), mach=i / 100, op_cache=True)
            spec.workload_key()
            spec.op_family()
        assert session._workload_key.cache_info().currsize == 64
        assert session._op_family.cache_info().currsize == 64
