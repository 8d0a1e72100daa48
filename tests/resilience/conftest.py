"""Shared fixtures for the resilience tests: a minimal world with one
remote procedure on a LeRC host, called from the Arizona AVS machine, so
a cross-site partition or loss window deterministically breaks exactly
the data path (Manager lookups stay local to the caller's machine)."""

import pytest

from repro.machines import Language
from repro.schooner import (
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import SpecFile

DOUBLER_SPEC = SpecFile.parse('export double_it prog("x" val double, "y" res double)')
DOUBLER_PATH = "/bin/double_it"
REMOTE_NICK = "lerc-rs6000"


class World:
    """env + manager + a contacted module with one imported stub, plus a
    server-side execution counter (the exactly-once witness)."""

    def __init__(self, idempotent=None):
        self.env = SchoonerEnvironment.standard()
        self.executions = []

        def double_it(x):
            self.executions.append(x)
            return x * 2

        exe = Executable(
            "double_it",
            (
                Procedure(
                    name="double_it",
                    signature=DOUBLER_SPEC.export_named("double_it"),
                    impl=double_it,
                    language=Language.C,
                    idempotent=idempotent,
                ),
            ),
        )
        for nick in (REMOTE_NICK, "lerc-cray"):
            self.env.park[nick].install(DOUBLER_PATH, exe)
        self.manager = Manager(
            env=self.env, host=self.env.park["ua-sparc10"], mode=ManagerMode.LINES
        )
        self.ctx = ModuleContext(
            manager=self.manager,
            module_name="m",
            machine=self.env.park["ua-sparc10"],
        )
        self.ctx.sch_contact_schx(REMOTE_NICK, DOUBLER_PATH)
        self.stub = self.ctx.import_proc(DOUBLER_SPEC.as_imports(), name="double_it")

    @property
    def remote_hostname(self):
        return self.env.park[REMOTE_NICK].hostname

    def partition(self):
        """Cut Arizona from LeRC from now on, through an attached
        injector (detach it to heal)."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, PartitionLink

        cut = PartitionLink(at_s=self.env.clock.now, site_a="lerc", site_b="arizona")
        injector = FaultInjector(env=self.env, plan=FaultPlan(seed=1, events=(cut,)))
        injector.attach()
        return injector

    def drop_requests(self, until_s):
        """Drop every caller->remote request until virtual ``until_s``;
        lookups (local to the caller's machine) and post-window Manager
        control traffic are untouched."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, PacketLoss

        plan = FaultPlan(
            seed=1,
            events=(
                PacketLoss(
                    at_s=0.0,
                    until_s=until_s,
                    rate=1.0,
                    src_host=self.env.park["ua-sparc10"].hostname,
                    dst_host=self.remote_hostname,
                ),
            ),
        )
        injector = FaultInjector(env=self.env, plan=plan)
        injector.attach()
        return injector


@pytest.fixture
def world():
    return World()
