"""The NPSS prototype simulation executive.

The paper's contribution: "A prototype NPSS executive has been
constructed by combining the capabilities of the AVS scientific
visualization system and Schooner.  AVS ... provides visualization
capabilities and an execution framework through its dataflow graph of
modules.  Schooner, in turn, provides the ability to perform the actual
computation associated with a module ... on a remote, potentially
heterogeneous, machine." (§3.2)

:class:`NPSSExecutive` owns the pieces: the Schooner environment and
persistent Manager, the AVS Network Editor and scheduler, the TESS
module palette, and the :class:`~repro.core.schooner_host.SchoonerHost`
that routes adapted-module computations to the machines selected by
each module's widgets.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..avs.editor import NetworkEditor
from ..avs.panel import ControlPanel
from ..avs.scheduler import DataflowScheduler
from ..machines.host import Machine
from ..schooner.manager import Manager, ManagerMode
from ..schooner.runtime import SchoonerEnvironment
from ..tess.atmosphere import FlightCondition
from ..tess.engine import EngineSpec, OperatingPoint, TransientResult, TwinSpoolTurbofan
from ..tess.f100 import F100_SPEC
from ..tess.schedules import Schedule
from .schooner_host import SchoonerHost
from .specs import install_tess_executables
from .tess_modules import (
    BleedModule,
    CombustorModule,
    CompressorModule,
    DuctModule,
    InletModule,
    MixingVolumeModule,
    NozzleModule,
    ShaftModule,
    SplitterModule,
    SystemModule,
    TESSModule,
    TurbineModule,
)

__all__ = ["NPSSExecutive"]


class NPSSExecutive:
    """The prototype simulation executive."""

    def __init__(
        self,
        env: Optional[SchoonerEnvironment] = None,
        avs_machine: str = "ua-sparc10",
        base_spec: Optional[EngineSpec] = None,
        dispatch: str = "overlap",
        jac_reuse: bool = True,
    ):
        """``base_spec`` selects the engine design the network models
        (defaults to the F100); module widgets still override the
        parameters they own.  ``dispatch`` and ``jac_reuse`` select the
        execution strategy: the defaults overlap independent RPCs and
        reuse Jacobians across solves; ``dispatch="sync"`` with
        ``jac_reuse=False`` is the strictly sequential reference path."""
        self.base_spec = base_spec or F100_SPEC
        self.env = env or SchoonerEnvironment.standard()
        install_tess_executables(self.env.park)
        self.avs_machine: Machine = self.env.park[avs_machine]
        self.manager = Manager(env=self.env, host=self.avs_machine, mode=ManagerMode.LINES)
        self.jac_reuse = jac_reuse
        self.host = SchoonerHost(
            manager=self.manager, avs_machine=self.avs_machine, dispatch=dispatch
        )
        self.editor = NetworkEditor()
        self.scheduler = DataflowScheduler(self.editor)
        self.solution: Optional[OperatingPoint] = None
        self.transient_result: Optional[TransientResult] = None
        self._engine: Optional[TwinSpoolTurbofan] = None
        self._engine_key = None

    # ------------------------------------------------------------ module mgmt
    def add_module(self, module: TESSModule, name: Optional[str] = None) -> TESSModule:
        module.executive = self
        return self.editor.add_module(module, name=name)

    def place_module(self, module, machine: Optional[str]) -> None:
        """Record where a remote-enabled module's computation runs (from
        its widgets); called by the module's compute prologue."""
        key = module.placement_key
        if machine is None:
            if key in self.host.placements:
                self.host.destroy_instance(key)
                del self.host.placements[key]
            return
        current = self.host.placements.get(key)
        if current != machine:
            if current is not None:
                self.host.destroy_instance(key)
            self.host.placements[key] = machine

    def release_module(self, module) -> None:
        """The AVS destroy path for an adapted module: sch_i_quit."""
        key = module.placement_key
        self.host.destroy_instance(key)
        self.host.placements.pop(key, None)

    def panel(self, module_name: str) -> ControlPanel:
        return ControlPanel(self.editor.module(module_name))

    # ------------------------------------------------------------- the F100
    def build_f100_network(self) -> Dict[str, TESSModule]:
        """Open Figure 2: the TESS F100 engine network.  The first
        executive over a machine park drags and wires it below — every
        port check and cycle walk run — and saves the checked network
        there (``park.saved_networks["f100"]``); this and every later one
        gets its own copy (:meth:`NetworkEditor.paste`), theirs to edit."""
        saved = self.env.park.saved_networks
        if "f100" not in saved:
            figure = NetworkEditor()
            add, connect = figure.add_module, figure.connect
            m: Dict[str, TESSModule] = {}
            m["system"] = add(SystemModule(role="system"), name="system")
            m["inlet"] = add(InletModule(role="inlet"), name="inlet")
            m["fan"] = add(CompressorModule(role="fan"), name="fan")
            m["fan"].set_param("performance map", "f100-fan.map")
            m["splitter"] = add(SplitterModule(role="splitter"), name="splitter")
            m["duct-bypass"] = add(DuctModule(role="duct:bypass"), name="bypass duct")
            m["duct-core"] = add(DuctModule(role="duct:core"), name="core duct")
            m["bleed"] = add(BleedModule(role="bleed"), name="bleed")
            m["hpc"] = add(
                CompressorModule(role="hpc"), name="high pressure compressor"
            )
            m["hpc"].set_param("performance map", "f100-hpc.map")
            m["combustor"] = add(CombustorModule(role="combustor"), name="combustor")
            m["hpt"] = add(TurbineModule(role="hpt"), name="high pressure turbine")
            m["lpt"] = add(TurbineModule(role="lpt"), name="low pressure turbine")
            m["duct-mixer"] = add(DuctModule(role="duct:mixer-entry"), name="mixer duct")
            m["mixer"] = add(MixingVolumeModule(role="mixer"), name="mixing volume")
            m["nozzle"] = add(NozzleModule(role="nozzle"), name="nozzle")
            m["shaft-low"] = add(ShaftModule(role="shaft:low"), name="low speed shaft")
            m["shaft-high"] = add(ShaftModule(role="shaft:high"), name="high speed shaft")

            # airflow wiring (the dataflow "models the flow of air through
            # the engine")
            connect("system", "control", "inlet", "control")
            connect("inlet", "out", "fan", "in")
            connect("fan", "out", "splitter", "in")
            connect("splitter", "bypass", "bypass duct", "in")
            connect("splitter", "core", "core duct", "in")
            connect("core duct", "out", "bleed", "in")
            connect("bleed", "out", "high pressure compressor", "in")
            connect("high pressure compressor", "out", "combustor", "in")
            connect("combustor", "out", "high pressure turbine", "in")
            connect("high pressure turbine", "out", "low pressure turbine", "in")
            connect("low pressure turbine", "out", "mixer duct", "in")
            connect("mixer duct", "out", "mixing volume", "core")
            connect("bypass duct", "out", "mixing volume", "bypass")
            connect("mixing volume", "out", "nozzle", "in")
            # shaft energy wiring (Figure 2: the low-speed shaft "receives
            # data from the upstream low pressure compressor")
            connect("fan", "energy", "low speed shaft", "compressor energy")
            connect("low pressure turbine", "energy", "low speed shaft", "turbine energy")
            connect("high pressure compressor", "energy", "high speed shaft", "compressor energy")
            connect("high pressure turbine", "energy", "high speed shaft", "turbine energy")
            saved["f100"] = figure, {key: mod.instance_name for key, mod in m.items()}
        figure, names = saved["f100"]
        opened = self.editor.paste(figure)
        for module in opened.values():
            module.executive = self
        m = {key: opened[name] for key, name in names.items()}
        m["shaft-low"].set_param("moment inertia", self.base_spec.low_inertia)
        m["shaft-high"].set_param("moment inertia", self.base_spec.high_inertia)
        return m

    # ----------------------------------------------------------------- solve
    def _role_index(self) -> Dict[str, TESSModule]:
        """role -> the first module in the network playing it, now."""
        modules = reversed(self.editor.modules.values())
        return {mod.role: mod for mod in modules if isinstance(mod, TESSModule)}

    def _module_by_role(self, role: str) -> Optional[TESSModule]:
        return self._role_index().get(role)

    def _engine_spec_from_widgets(self) -> EngineSpec:
        spec = self.base_spec
        kw = {}
        by_role = self._role_index().get
        comb = by_role("combustor")
        if comb is not None:
            kw["burner_efficiency"] = comb.param("efficiency")
            kw["burner_loss"] = comb.param("dpqp")
        noz = by_role("nozzle")
        if noz is not None:
            kw["nozzle_cd"] = noz.param("cd")
        inlet = by_role("inlet")
        if inlet is not None:
            kw["inlet_recovery"] = inlet.param("recovery")
        bleed = by_role("bleed")
        if bleed is not None:
            kw["bleed_fraction"] = bleed.param("fraction")
        lo = by_role("shaft:low")
        if lo is not None:
            kw["low_inertia"] = lo.param("moment inertia")
        hi = by_role("shaft:high")
        if hi is not None:
            kw["high_inertia"] = hi.param("moment inertia")
        from dataclasses import replace

        return replace(spec, **kw)

    def engine(self) -> TwinSpoolTurbofan:
        """The engine built from the network's current configuration."""
        spec = self._engine_spec_from_widgets()
        key = spec
        if self._engine is None or self._engine_key != key:
            self._engine = TwinSpoolTurbofan(
                spec=spec, host=self.host, jac_reuse=self.jac_reuse
            )
            self._engine_key = key
        return self._engine

    def flight_condition(self) -> FlightCondition:
        inlet = self._module_by_role("inlet")
        if inlet is None:
            return FlightCondition(0.0, 0.0)
        return FlightCondition(
            altitude_m=inlet.param("altitude"),
            mach=inlet.param("mach"),
            humidity=inlet.param("humidity"),
        )

    def fuel_schedule(self) -> Schedule:
        comb = self._module_by_role("combustor")
        if comb is None:
            return Schedule.constant(self.base_spec.wf_design)
        wf0 = comb.param("fuel flow")
        wf1 = comb.param("fuel flow-op")
        ramp = max(comb.param("ramp seconds"), 1e-6)
        if wf0 == wf1:
            return Schedule.constant(wf0)
        return Schedule.of((0.0, wf0), (ramp, wf1))

    def _sync_placements(self) -> None:
        """Read every adapted module's machine widget into the host's
        placement table (the executive-side half of sch_contact_schx —
        needed because the system module solves before the downstream
        modules' compute functions run)."""
        from .tess_modules import LOCAL_CHOICE, RemoteComputeMixin

        for mod in self.editor.modules.values():
            if isinstance(mod, RemoteComputeMixin):
                machine = mod.param("remote machine")
                self.place_module(mod, None if machine == LOCAL_CHOICE else machine)

    def run_simulation(self) -> OperatingPoint:
        """What the system module's compute does: balance the engine,
        then run the configured transient.

        "When execution is started, TESS first attempts to balance the
        engine at the initial operating point through a steady-state
        calculation.  The engine transient begins once the engine is
        balanced and proceeds up to the number of seconds specified by
        the user."
        """
        system = self._module_by_role("system")
        steady_method = system.param("steady-state method") if system else "Newton-Raphson"
        transient_method = system.param("transient method") if system else "Modified Euler"
        t_end = system.param("transient seconds") if system else 0.0
        dt = system.param("time step") if system else 0.02

        self._sync_placements()
        engine = self.engine()
        flight = self.flight_condition()
        schedule = self.fuel_schedule()
        self.host.setup()
        balanced = engine.balance(flight, schedule.value(0.0), method=steady_method)
        self.solution = balanced
        self._run_zooms(engine, balanced)
        if t_end > 0:
            self.transient_result = engine.transient(
                flight, schedule, t_end=t_end, dt=dt,
                method=transient_method, start=balanced,
            )
        return balanced

    def _run_zooms(self, engine, balanced) -> None:
        """Zooming (§2.3): any compressor module set to level-2 fidelity
        gets a stage-stacked analysis at the solved operating point, and
        the extracted boundary data is stored for comparison."""
        from .fidelity import StageStackedCompressor, zoom_extract
        from .tess_modules import CompressorModule

        self.zoom_reports = {}
        inlet_station = {"fan": "2", "hpc": "25"}
        for mod in self.editor.modules.values():
            if not isinstance(mod, CompressorModule) or not mod.zoomed:
                continue
            state_in = balanced.stations[inlet_station.get(mod.role, "25")]
            state_out = balanced.stations[
                CompressorModule.STATION_BY_ROLE.get(mod.role, "3")
            ]
            pr = state_out.Pt / state_in.Pt
            comp = StageStackedCompressor(
                n_stages=mod.param("stages"), overall_pr=pr
            )
            speed = balanced.n1 if mod.role == "fan" else balanced.n2
            out, records = comp.run(state_in, speed_fraction=speed)
            self.zoom_reports[mod.role] = zoom_extract(state_in, out, records)

    def execute(self):
        """Run the AVS network: the system module solves, downstream
        modules publish their station states."""
        return self.scheduler.execute_all()

    # ----------------------------------------------------- resilient running
    def run_resilient(
        self,
        plan=None,
        heartbeat_interval_s: float = 0.5,
        checkpoint_interval_s: float = 1.0,
    ) -> OperatingPoint:
        """:meth:`run_simulation` under failure detection and failover.

        A :class:`~repro.faults.FailoverSupervisor` is attached to the
        Manager for the duration of the run: stateful remote instances
        are checkpointed every ``checkpoint_interval_s`` virtual
        seconds, dead hosts are detected by heartbeat or failed call,
        and crashed instances restart on surviving machines with their
        checkpointed state — so the run completes even when ``plan``
        (a :class:`~repro.faults.FaultPlan`, applied by an injector for
        the duration) kills a component's host mid-transient.

        The supervisor and injector remain available afterwards as
        ``self.supervisor`` / ``self.injector`` for failure-log and
        trace inspection.
        """
        from ..faults import FailoverSupervisor, FaultInjector

        self.supervisor = FailoverSupervisor(
            manager=self.manager,
            heartbeat_interval_s=heartbeat_interval_s,
            checkpoint_interval_s=checkpoint_interval_s,
        )
        self.injector = FaultInjector(env=self.env, plan=plan) if plan is not None else None
        self.supervisor.attach()
        if self.injector is not None:
            self.injector.attach()
        try:
            return self.run_simulation()
        finally:
            if self.injector is not None:
                self.injector.detach()
            self.supervisor.detach()

    # --------------------------------------------------- interactive running
    def run_interactive(self, segments) -> "TransientResult":
        """§2.4: "set starting parameters for the engine, and modify
        them during a simulation run."

        ``segments`` is a sequence of ``(duration_s, widget_updates)``
        pairs; between segments the given widget updates are applied
        (``{(module_name, widget_name): value}``) and the transient
        continues from the carried rotor state — the user turning dials
        while the engine runs.  Returns the stitched TransientResult.
        """
        import numpy as np

        system = self._module_by_role("system")
        dt = system.param("time step") if system else 0.02
        method = system.param("transient method") if system else "Modified Euler"

        self._sync_placements()
        self.host.setup()
        engine = self.engine()
        flight = self.flight_condition()

        start = engine.balance(flight, self.fuel_schedule().value(0.0))
        pieces = []
        t_offset = 0.0
        for duration, updates in segments:
            for (module_name, widget), value in (updates or {}).items():
                self.editor.module(module_name).set_param(widget, value)
            # a widget update may have moved a module to another machine
            # (or pulled it local), or changed a spec-owning widget —
            # re-read the placement table and the engine before the next
            # segment runs
            self._sync_placements()
            engine = self.engine()
            schedule = self.fuel_schedule()
            # the schedule restarts per segment: ramps replay from the
            # segment boundary, which is when the user moved the widget
            res = engine.transient(
                flight, schedule, t_end=duration, dt=dt, method=method,
                start=start,
            )
            pieces.append((t_offset, res))
            t_offset += duration
            # carry rotor + gas-path state into the next segment
            start = engine._solve_gas_path(
                flight, schedule.value(duration),
                float(res.n1[-1]), float(res.n2[-1]),
            )
            start.n1, start.n2 = float(res.n1[-1]), float(res.n2[-1])

        t = np.concatenate(
            [off + r.t[(1 if i else 0):] for i, (off, r) in enumerate(pieces)]
        )

        def cat(attr):
            return np.concatenate(
                [getattr(r, attr)[(1 if i else 0):] for i, (off, r) in enumerate(pieces)]
            )

        last = pieces[-1][1]
        self.transient_result = TransientResult(
            t=t, n1=cat("n1"), n2=cat("n2"), thrust=cat("thrust"),
            t4=cat("t4"), wf=cat("wf"), method=last.method, ode=last.ode,
        )
        self.solution = start
        return self.transient_result

    # ------------------------------------------------------- serving sessions
    @classmethod
    def serve(
        cls,
        sessions,
        installation=None,
        mode: str = "inline",
        workers: int = 4,
        dedup: bool = True,
        admission=None,
    ):
        """Serve many concurrent engine sessions over one shared
        installation (see :mod:`repro.serve`).

        ``sessions`` is a sequence of
        :class:`~repro.serve.session.SessionSpec`; each gets its own
        virtual clock, transport, and executive over the shared machine
        park, admitted on one virtual timeline and run to completion
        as they start, with identical workloads deduplicated through
        the installation's cache.
        ``admission`` is an optional
        :class:`~repro.serve.scheduler.AdmissionPolicy` bounding
        concurrency under overload.  ``mode="shard"`` scales across
        cores: sessions are dealt to ``workers`` OS processes, each
        serving on its own installation replica, with digests and
        virtual times bitwise-identical to inline (see
        :mod:`repro.serve.shards`; ``installation`` must be None — a
        live one cannot cross the process boundary).  Returns the
        :class:`~repro.serve.scheduler.ServeReport`.
        """
        from ..serve import serve_sessions

        return serve_sessions(
            sessions, installation=installation, mode=mode,
            workers=workers, dedup=dedup, admission=admission,
        )

    # -------------------------------------------------------------- teardown
    def __enter__(self) -> "NPSSExecutive":
        return self

    def __exit__(self, *exc) -> None:
        # teardown runs on the exception path too: an aborted run
        # leaves no remote computation running
        self.close()

    def close(self) -> None:
        """Full teardown: shut down every remote computation."""
        self.host.destroy_all()

    def clear_network(self) -> None:
        """The AVS 'clear network' action: every module is destroyed and
        every line's remote computations shut down; the persistent
        Manager survives for the next engine model."""
        try:
            self.editor.clear()
        finally:
            # a raising destroy must not leave the other lines' processes up
            self.host.destroy_all()
            self.solution = None
            self.transient_result = None
            self._engine = None
