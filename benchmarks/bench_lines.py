"""Ablation A3 (§4.2) — the lines model vs the original single-program
model.

Shows what the extension buys: duplicate module instances (the F100 has
two shafts), per-line shutdown scope, a persistent Manager across runs,
and independent per-line virtual time (controlled concurrency).
"""

import pytest

from repro.core import REMOTE_PATHS, build_shaft_executable, install_tess_executables
from repro.schooner import (
    DuplicateName,
    Manager,
    ManagerMode,
    ModuleContext,
    SchoonerEnvironment,
)
from repro.uts import SpecFile
from repro.core.specs import SHAFT_SPEC_SOURCE

SHAFT_IMPORTS = SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports()
SHAFT_ARGS = dict(
    ecom=[12.9e6, 0, 0, 0], incom=1, etur=[13.4e6, 0, 0, 0], intur=1,
    ecorr=0.0, xspool=1.0, xmyi=2.2,
)
SETSHAFT_ARGS = dict(inertia=2.2, omegad=1000.0, mecheff=1.0)


def shaft_stub(ctx):
    """The shaft's compute stub, after setshaft left its state."""
    ctx.import_proc(SHAFT_IMPORTS.import_named("setshaft"))(**SETSHAFT_ARGS)
    return ctx.import_proc(SHAFT_IMPORTS.import_named("shaft"))


def fresh_env():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    return env


def test_lines_duplicate_instances(benchmark):
    """Lines allow N same-name module instances; the original model
    rejects the second."""

    def run():
        env = fresh_env()
        lines_mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        contexts = []
        for i in range(4):
            ctx = ModuleContext(manager=lines_mgr, module_name=f"shaft-{i}",
                                machine=env.park["ua-sparc10"])
            ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
            contexts.append(ctx)
        lines_ok = len(lines_mgr.active_lines)

        env2 = fresh_env()
        single_mgr = Manager(env=env2, host=env2.park["ua-sparc10"],
                             mode=ManagerMode.SINGLE_PROGRAM)
        line = single_mgr.contact("program", env2.park["ua-sparc10"])
        single_mgr.start_remote(line, env2.park["lerc-rs6000"], REMOTE_PATHS["shaft"])
        try:
            single_mgr.start_remote(line, env2.park["lerc-cray"], REMOTE_PATHS["shaft"])
            rejected = False
        except DuplicateName:
            rejected = True
        return lines_ok, rejected

    lines_ok, rejected = benchmark(run)
    assert lines_ok == 4
    assert rejected
    benchmark.extra_info.update(
        {"lines_instances": lines_ok, "single_program_rejects_duplicates": rejected}
    )


def test_per_line_shutdown_scope(benchmark):
    """Removing one module tears down only its line."""

    def run():
        env = fresh_env()
        mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        contexts = []
        for i in range(6):
            ctx = ModuleContext(manager=mgr, module_name=f"m{i}",
                                machine=env.park["ua-sparc10"])
            ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
            contexts.append(ctx)
        contexts[0].sch_i_quit()
        return (
            len(mgr.active_lines),
            len(env.park["lerc-rs6000"].running_processes),
            mgr.running,
        )

    active, procs, running = benchmark(run)
    assert active == 5
    assert procs == 5
    assert running  # the persistent Manager survives
    benchmark.extra_info.update({"surviving_lines": active})


def test_manager_handles_repeated_runs(benchmark):
    """'The persistent nature of the Manager ... allows multiple runs of
    a simulation to be handled' — contact/start/call/quit cycles against
    one Manager."""
    env = fresh_env()
    mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    counter = {"n": 0}

    def one_run():
        counter["n"] += 1
        ctx = ModuleContext(manager=mgr, module_name=f"run{counter['n']}",
                            machine=env.park["ua-sparc10"])
        ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
        stub = shaft_stub(ctx)
        out = stub(**SHAFT_ARGS)
        ctx.sch_i_quit()
        return out["dxspl"]

    dxspl = benchmark(one_run)
    # setshaft's omega_design of 1000 rad/s
    assert dxspl == pytest.approx(0.5e6 / (2.2 * 1000.0**2), rel=1e-6)
    assert mgr.running
    assert mgr.runs_handled == counter["n"]
    benchmark.extra_info["runs_handled"] = mgr.runs_handled


def test_lines_concurrency_virtual_time(benchmark):
    """Lines 'execute independently of the others with no
    synchronization': N lines each make a WAN call, and global virtual
    time is the max (concurrent), not the sum (serialized)."""

    def run():
        env = fresh_env()
        mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
        stubs = []
        for i in range(5):
            ctx = ModuleContext(manager=mgr, module_name=f"m{i}",
                                machine=env.park["ua-sparc10"])
            ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
            stubs.append(shaft_stub(ctx))
        t0 = env.clock.now
        line_times = []
        for stub in stubs:
            before = stub.line.timeline.now
            stub(**SHAFT_ARGS)
            line_times.append(stub.line.timeline.now - before)
        return env.clock.now - t0, line_times

    global_dt, line_times = benchmark(run)
    # the envelope, not the sum: concurrent lines overlap
    assert global_dt < sum(line_times) * 0.9
    assert global_dt >= max(line_times) * 0.5
    benchmark.extra_info.update(
        {
            "global_virtual_s": round(global_dt, 3),
            "sum_of_line_s": round(sum(line_times), 3),
        }
    )
