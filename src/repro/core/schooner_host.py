"""SchoonerHost: TESS component computations over heterogeneous RPC.

This is the glue of section 3.3.  Each adapted module instance (the
low-speed shaft, the bypass duct, ...) owns a :class:`ModuleContext` —
one Schooner *line* — whose remote process is started on the machine the
user picked with the module's widgets.  The ``set*`` procedure runs once
per instance before the first compute, exactly as in the paper, and the
compute procedure is then called repeatedly through the line's stubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..machines.host import Machine
from ..schooner.api import ModuleContext
from ..schooner.lines import LineState
from ..schooner.manager import Manager
from ..schooner.runtime import CallBatch, CallerContext
from ..schooner.stubs import ClientStub
from ..solvers.steady import FD_EPS, fd_jacobian
from ..tess.gas import GasState
from ..tess.hosts import ComponentHost, LocalHost
from ..uts.spec import SpecFile
from .specs import (
    COMBUSTOR_SPEC_SOURCE,
    DUCT_SPEC_SOURCE,
    NOZZLE_SPEC_SOURCE,
    REMOTE_PATHS,
    SHAFT_SPEC_SOURCE,
)

__all__ = ["SchoonerHost", "Placement"]

#: machine (nickname/hostname or Machine) where an instance computes
Placement = Union[Machine, str]

_ACTIVE = LineState.ACTIVE

_IMPORTS = {
    "shaft": SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports(),
    "duct": SpecFile.parse(DUCT_SPEC_SOURCE).as_imports(),
    "combustor": SpecFile.parse(COMBUSTOR_SPEC_SOURCE).as_imports(),
    "nozzle": SpecFile.parse(NOZZLE_SPEC_SOURCE).as_imports(),
}
#: per kind: (set* import, its parameter names in the order an instance's
#: ``params`` tuple lists them, compute import)
_PROCS = {
    kind: (_IMPORTS[kind].import_named(setter), names, _IMPORTS[kind].import_named(compute))
    for kind, setter, names, compute in (
        ("shaft", "setshaft", ("inertia", "omegad", "mecheff"), "shaft"),
        ("duct", "setduct", ("dpqp",), "duct"),
        ("combustor", "setcomb", ("eta", "dpqp", "tmax"), "comb"),
        ("nozzle", "setnozl", ("cd", "area"), "nozl"),
    )
}


class _Placed:
    """One placed instance: what its placement fixes — the machine it
    names, the executable path, the key's ModuleContext (kept when the
    placement is replaced, so the line is too) — and, once a call made
    them, the set*/compute stubs of the context's current line.

    It is also the instance's per-call wrapper: a call rides
    ``compute`` as it is while the placement is the same object, the
    line is active and the set* parameters are the ones the line's
    process was given (``params``).  Anything else goes through
    :meth:`SchoonerHost._bind`.  A process that died under the wrapper
    is the call's to meet: its stub re-resolves through the Manager,
    which recovers it (§4.2)."""

    __slots__ = ("key", "placement", "machine", "path", "ctx", "line", "setter",
                 "compute", "params")

    def __init__(self, key: str, placement: Placement, machine: Machine, path: str,
                 ctx: ModuleContext) -> None:
        self.key = key
        self.placement, self.machine, self.path, self.ctx = placement, machine, path, ctx
        self.line = self.setter = self.compute = self.params = None


def _pad4(seq) -> list:
    vals = list(seq)[:4]
    return vals + [0.0] * (4 - len(vals))


@dataclass
class SchoonerHost(ComponentHost):
    """Route adapted-module computations through Schooner.

    ``placements`` maps instance keys to machines:

    * ``"shaft:low"``, ``"shaft:high"``
    * ``"duct:bypass"``, ``"duct:core"``, ``"duct:mixer-entry"``
    * ``"combustor"``, ``"nozzle"``

    Instances without a placement compute locally, so any subset of the
    four adapted modules can be remote — the paper tested one, two,
    three, and all four.

    ``dispatch`` selects the call model.  Both serialize dependent
    calls on the calling program's own timeline (the AVS process can
    only issue one thing at a time):

    * ``"overlap"`` (default): independent computations — the
      bypass/core duct branch, the two shaft accelerations, FD-Jacobian
      column probes — go out as overlapped batches and cost the caller
      the max of the concurrent round trips;
    * ``"sync"``: every call blocks the caller for its full round trip
      (the honest sequential baseline, kept as the differential oracle).
    """

    manager: Manager
    avs_machine: Machine  # where AVS (and the unadapted code) runs
    placements: Dict[str, Placement] = field(default_factory=dict)
    dispatch: str = "overlap"  # "overlap" | "sync"
    # instance key -> its _Placed: resolved when the key is first used
    # and again when its placement is replaced (the context, i.e. the
    # line, is kept)
    _placed: Dict[str, _Placed] = field(default_factory=dict)
    _initialized: Dict[str, tuple] = field(default_factory=dict)
    # (kind, instance name) -> the _Placed whose wrapper a call rides
    _live: Dict[tuple, _Placed] = field(default_factory=dict)
    _local: LocalHost = field(default_factory=LocalHost)
    calls: Dict[str, int] = field(default_factory=dict)
    _caller: Optional[CallerContext] = field(default=None, repr=False)

    def _machine(self, placement: Placement) -> Machine:
        if isinstance(placement, Machine):
            return placement
        return self.manager.env.park[placement]

    def caller_context(self) -> CallerContext:
        """The AVS process's own thread of virtual time, shared by every
        module context so dependent calls serialize honestly."""
        if self._caller is None:
            tl = self.manager.env.clock.timeline(
                f"caller:{self.avs_machine.hostname}"
            )
            self._caller = CallerContext(timeline=tl)
        return self._caller

    def _context(self, key: str) -> Optional[_Placed]:
        """The placement of an instance key, contacted, or None if local.

        What the key says (kind, path) and what its placement names
        (the machine) are resolved once; the line, which can end under
        a running simulation, is revalidated by ``sch_contact_schx``'s
        own idempotence test, and anything but "placed there on an
        active line" goes through ``sch_contact_schx`` itself.  The
        remote processes are not checked: a dead one is met, and
        recovered, by the call that reaches it."""
        placement = self.placements.get(key)
        if placement is None:
            return None
        placed = self._placed.get(key)
        if placed is None or placed.placement is not placement:
            ctx = placed.ctx if placed is not None else ModuleContext(
                manager=self.manager, module_name=key, machine=self.avs_machine,
                caller=self.caller_context(),
            )
            placed = self._placed[key] = _Placed(
                key, placement, self._machine(placement), REMOTE_PATHS[key.split(":")[0]], ctx,
            )
        ctx = placed.ctx
        if not ctx.placed_alive(placed.machine, placed.path):
            ctx.sch_contact_schx(placed.machine, placed.path)
        return placed

    # ------------------------------------------------------------- lifecycle
    def setup(self) -> None:
        """Start (or confirm) every placed instance's remote process."""
        for key in self.placements:
            self._context(key)

    def teardown(self) -> None:
        """The paper keeps remote processes alive across module
        executions; they die when the AVS module is destroyed (see
        :meth:`destroy_instance`), so teardown is a no-op."""

    def destroy_instance(self, key: str) -> None:
        """The AVS destroy path: sch_i_quit for one module instance."""
        placed = self._placed.pop(key, None)
        if placed is not None:
            placed.ctx.sch_i_quit()
        self._initialized.pop(key, None)

    def destroy_all(self) -> None:
        for key in list(self._placed):
            self.destroy_instance(key)

    # ------------------------------------------------------------ components
    def _compute(self, kind: str, name: str, params: tuple) -> Optional[ClientStub]:
        """The compute stub of instance ``name`` of ``kind`` — contacted,
        counted and initialised by its set* procedure (once, or again
        after a parameter/placement change) — or None when it computes
        locally.  A call whose wrapper still holds (see :class:`_Placed`)
        takes the stub from it and only counts itself."""
        placed = self._live.get((kind, name))
        if (placed is not None
                and placed.params == params and placed.line.state is _ACTIVE
                and self.placements.get(placed.key) is placed.placement):
            self.calls[placed.key] += 1
            return placed.compute
        return self._bind(kind, name, params)

    def _bind(self, kind: str, name: str, params: tuple) -> Optional[ClientStub]:
        """A component call whose wrapper does not hold: contact the
        placement (starting its process), make the line's
        two stubs once per line, run set* when the line, the placement
        or the parameters moved, and leave the wrapper for the next
        call."""
        key = f"{kind}:{name}" if name else kind
        placed = self._context(key)
        if placed is None:
            return None
        self.calls[key] = self.calls.get(key, 0) + 1
        line = placed.ctx.line
        if placed.line is not line:
            setter, _, compute = _PROCS[kind]
            placed.setter = placed.ctx.import_proc(setter)
            placed.compute = placed.ctx.import_proc(compute)
            placed.line = line
        marker = (id(line), placed.placement, params)
        if self._initialized.get(key) != marker:
            placed.setter(**dict(zip(_PROCS[kind][1], params)))
            self._initialized[key] = marker
        placed.params = params
        self._live[(kind, name)] = placed
        return placed.compute

    def duct(self, name: str, duct, state: GasState) -> GasState:
        stub = self._compute("duct", name, (duct.dpqp,))
        if stub is None:
            return self._local.duct(name, duct, state)
        out = stub(w=state.W, tt=state.Tt, pt=state.Pt, far=state.far)
        return GasState(out["wo"], out["tto"], out["pto"], out["faro"])

    def combustor(self, comb, state: GasState, wf: float) -> GasState:
        stub = self._compute("combustor", "", (comb.efficiency, comb.dpqp, comb.t_max))
        if stub is None:
            return self._local.combustor(comb, state, wf)
        out = stub(w=state.W, tt=state.Tt, pt=state.Pt, far=state.far, wfuel=wf)
        return GasState(out["wo"], out["tto"], out["pto"], out["faro"])

    def nozzle(self, nozzle, state: GasState, ps_ambient: float, flight_speed: float):
        stub = self._compute("nozzle", "", (nozzle.cd, nozzle.area_m2))
        if stub is None:
            return self._local.nozzle(nozzle, state, ps_ambient, flight_speed)
        out = stub(
            w=state.W, tt=state.Tt, pt=state.Pt, far=state.far,
            ps0=ps_ambient, v0=flight_speed,
        )
        return out["wcap"], out["fnet"]

    @staticmethod
    def _shaft_args(shaft, ecom, etur, ecorr, xspool) -> dict:
        return dict(
            ecom=_pad4(ecom), incom=len(ecom),
            etur=_pad4(etur), intur=len(etur),
            ecorr=ecorr, xspool=xspool, xmyi=shaft.inertia,
        )

    def shaft_accel(self, name, shaft, ecom, etur, ecorr, xspool):
        stub = self._compute(
            "shaft", name, (shaft.inertia, shaft.omega_design, shaft.mech_eff)
        )
        if stub is None:
            return self._local.shaft_accel(name, shaft, ecom, etur, ecorr, xspool)
        return stub(**self._shaft_args(shaft, ecom, etur, ecorr, xspool))["dxspl"]

    # ------------------------------------------------------------- overlapped
    def _overlappable(self) -> bool:
        """Whether a pair goes out as an overlapped batch: under overlap
        dispatch, and not from inside a probe region (whose calls
        serialize on the region's branch)."""
        if self.dispatch != "overlap":
            return False
        ctx = self._caller
        return ctx is None or ctx.batch is None or ctx.batch._active_branch is None

    def duct_pair(self, jobs):
        """Independent duct computations as one overlapped batch: the
        bypass/core branch costs the caller max(round trips), with only
        same-line/server work serialized.  An instance that computes
        locally does so in job order, and no batch opens when none is
        remote."""
        if not self._overlappable():
            return ComponentHost.duct_pair(self, jobs)
        out: list = [None] * len(jobs)
        remote = []
        for i, (name, duct, state) in enumerate(jobs):
            stub = self._compute("duct", name, (duct.dpqp,))
            if stub is None:
                out[i] = self._local.duct(name, duct, state)
            else:
                remote.append((i, stub, state))
        if remote:
            # opened once every set* a binding ran has moved the caller
            batch = CallBatch(self.manager.env, self.caller_context(), "duct-pair")
            pending = []
            for i, stub, state in remote:
                pending.append((i, stub.begin(batch, w=state.W, tt=state.Tt, pt=state.Pt,
                                               far=state.far)))
            batch.wait()  # re-raises the first member's failure
            for i, fut in pending:
                r = fut.results
                out[i] = GasState(r["wo"], r["tto"], r["pto"], r["faro"])
        return tuple(out)

    def shaft_accel_pair(self, jobs):
        """The low/high spool accelerations as one overlapped batch."""
        if not self._overlappable():
            return ComponentHost.shaft_accel_pair(self, jobs)
        out: list = [None] * len(jobs)
        remote = []
        for i, job in enumerate(jobs):
            name, shaft, ecom, etur, ecorr, xspool = job
            stub = self._compute(
                "shaft", name, (shaft.inertia, shaft.omega_design, shaft.mech_eff)
            )
            if stub is None:
                out[i] = self._local.shaft_accel(*job)
            else:
                remote.append((i, stub, self._shaft_args(shaft, ecom, etur, ecorr, xspool)))
        if remote:
            batch = CallBatch(self.manager.env, self.caller_context(), "shaft-pair")
            pending = []
            for i, stub, args in remote:
                pending.append((i, stub.begin(batch, **args)))
            batch.wait()
            for i, fut in pending:
                out[i] = fut.results["dxspl"]
        return tuple(out)

    def jacobian(
        self,
        f: Callable[[np.ndarray], np.ndarray],
        x: np.ndarray,
        fx: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forward-difference Jacobian with overlapped column probes.

        Each column is one probe region: its gas-path RPCs keep their
        data-dependent order *within* the column, while the n columns
        (independent by construction) overlap with each other, queuing
        only for the shared per-line server occupancy.  The arithmetic
        is exactly :func:`~repro.solvers.steady.fd_jacobian`'s, so the
        result is bit-identical to the sequential sweep.
        """
        caller = self.caller_context()
        if (self.dispatch != "overlap" or not self.placements
                or caller.batch is not None):
            return fd_jacobian(f, x, fx)
        x = np.asarray(x, dtype=float)
        if fx is None:
            fx = np.asarray(f(x), dtype=float)
        n = x.size
        J = np.empty((fx.size, n))
        batch = CallBatch(self.manager.env, caller, "fd-jacobian")
        caller.batch = batch
        try:
            for j in range(n):
                with batch.region(f"probe:{j}"):
                    h = FD_EPS * max(1.0, abs(x[j]))
                    xp = x.copy()
                    xp[j] += h
                    J[:, j] = (np.asarray(f(xp), dtype=float) - fx) / h
        finally:
            caller.batch = None
            batch.wait()
        return J

    # -------------------------------------------------------------- reporting
    @property
    def remote_call_count(self) -> int:
        return sum(self.calls.values())
