"""Ablation A7 (§4.1) — the startup protocol change.

"Previously, Schooner programs were started by executing the Manager as
a command ... Once started, the Manager would create processes to
execute all the remote procedures ... When AVS is involved, however,
the Manager is no longer in control ... a new protocol was devised that
allows a newly-configured module to establish initial contact [with]
the Manager and to send requests for a remote procedure to be started
on a specific machine."

Compares the two protocols on cost and capability: the a-priori model
starts everything up front; the dynamic protocol starts processes only
when modules are configured — paying a contact message per module but
enabling interactive placement (and not starting what is never used).
"""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.schooner import (
    Manager,
    ManagerMode,
    ModuleContext,
    SchoonerEnvironment,
    SchoonerProgram,
)
from repro.uts import SpecFile
from repro.core.specs import DUCT_SPEC_SOURCE

DUCT_IMPORTS = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()


def fresh_env():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    return env


def test_apriori_startup(benchmark):
    """The original command-line model: everything starts before main."""

    def run():
        env = fresh_env()

        def main(ctx):
            ctx.import_proc(DUCT_IMPORTS.import_named("setduct"))(dpqp=0.0)
            stub = ctx.import_proc(DUCT_IMPORTS.import_named("duct"))
            return stub(w=100.0, tt=300.0, pt=2e5, far=0.0)

        program = SchoonerProgram(
            env=env, host=env.park["ua-sparc10"], main=main,
            placements=[("lerc-rs6000", REMOTE_PATHS["duct"])],
        )
        program.run()
        return env.clock.now, env.transport.stats.messages

    virtual_s, messages = benchmark(run)
    benchmark.extra_info.update(
        {"virtual_s": round(virtual_s, 3), "messages": messages,
         "model": "a-priori (original)"}
    )


def test_dynamic_contact_startup(benchmark):
    """The new protocol: contact + start-on-demand per module."""

    def run():
        env = fresh_env()
        mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=mgr, module_name="duct",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["duct"])
        ctx.import_proc(DUCT_IMPORTS.import_named("setduct"))(dpqp=0.0)
        stub = ctx.import_proc(DUCT_IMPORTS.import_named("duct"))
        stub(w=100.0, tt=300.0, pt=2e5, far=0.0)
        ctx.sch_i_quit()
        return env.clock.now, env.transport.stats.messages

    virtual_s, messages = benchmark(run)
    benchmark.extra_info.update(
        {"virtual_s": round(virtual_s, 3), "messages": messages,
         "model": "dynamic contact (new)"}
    )


def test_dynamic_startup_is_lazy(benchmark):
    """The dynamic protocol's capability edge: only configured modules
    start processes.  With 4 executables available but 1 module
    configured, the a-priori model would start all 4; the dynamic model
    starts 1."""

    def run():
        env = fresh_env()
        mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=mgr, module_name="only-duct",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["duct"])
        started = len(env.park["lerc-rs6000"].running_processes)

        env2 = fresh_env()
        program = SchoonerProgram(
            env=env2, host=env2.park["ua-sparc10"], main=lambda ctx: None,
            placements=[("lerc-rs6000", p) for p in REMOTE_PATHS.values()],
        )
        # instrument: peak process count during the run
        peak = {"n": 0}
        original_main = program.main

        def main(ctx):
            peak["n"] = len(env2.park["lerc-rs6000"].running_processes)
            return original_main(ctx)

        program.main = main
        program.run()
        return started, peak["n"]

    dynamic_started, apriori_started = benchmark(run)
    assert dynamic_started == 1
    assert apriori_started == 4
    benchmark.extra_info.update(
        {"dynamic_processes": dynamic_started, "apriori_processes": apriori_started}
    )


def test_interactive_replacement_cost(benchmark):
    """What the new protocol enables: the user flips the machine widget
    and the computation moves — one shutdown + one start, no program
    restart."""

    def run():
        env = fresh_env()
        mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        ctx = ModuleContext(manager=mgr, module_name="duct",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["duct"])
        t0 = env.clock.now
        ctx.sch_contact_schx("lerc-cray", REMOTE_PATHS["duct"])  # widget flip
        replace_cost = env.clock.now - t0
        # a fresh process starts with empty state: setduct runs again,
        # exactly as the paper's set* procedures do per configuration
        ctx.import_proc(DUCT_IMPORTS.import_named("setduct"))(dpqp=0.02)
        stub = ctx.import_proc(DUCT_IMPORTS.import_named("duct"))
        out = stub(w=100.0, tt=300.0, pt=2e5, far=0.0)
        return replace_cost, out["pto"]

    replace_cost, pto = benchmark(run)
    assert pto == pytest.approx(2e5 * (1 - 0.02), rel=1e-9)
    assert replace_cost > 0
    benchmark.extra_info["replacement_virtual_s"] = round(replace_cost, 3)
