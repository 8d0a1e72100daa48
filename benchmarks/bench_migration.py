"""Ablation A4 (§4.2) — procedure migration.

Measures the modelled cost of moving a remote procedure (shutdown + new
start + mapping update), the stale-cache failover penalty on the first
post-move call, and the payoff scenario the paper gives: moving off a
heavily loaded machine.
"""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.schooner import Manager, ManagerMode, ModuleContext, SchoonerEnvironment
from repro.uts import SpecFile
from repro.core.specs import SHAFT_SPEC_SOURCE

SHAFT_IMPORTS = SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports()
SHAFT_ARGS = dict(
    ecom=[12.9e6, 0, 0, 0], incom=1, etur=[13.4e6, 0, 0, 0], intur=1,
    ecorr=0.0, xspool=1.0, xmyi=2.2,
)


def setup_context():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    mgr = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=mgr, module_name="shaft", machine=env.park["ua-sparc10"])
    ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["shaft"])
    # setshaft leaves the state a move ships along
    ctx.import_proc(SHAFT_IMPORTS.import_named("setshaft"))(
        inertia=2.2, omegad=1000.0, mecheff=1.0
    )
    stub = ctx.import_proc(SHAFT_IMPORTS.import_named("shaft"))
    stub(**SHAFT_ARGS)  # warm the name cache
    return env, ctx, stub


def test_move_cost(benchmark):
    """Virtual cost of one move: shutdown message + remote start + state
    transfer + mapping update."""
    moves = {"n": 0}
    targets = ["lerc-cray", "lerc-sgi420", "lerc-sgi480", "lerc-rs6000"]
    env, ctx, stub = setup_context()

    def one_move():
        before = ctx.line.timeline.now
        ctx.sch_move("shaft", targets[moves["n"] % len(targets)])
        moves["n"] += 1
        return ctx.line.timeline.now - before

    move_virtual_s = benchmark(one_move)
    assert move_virtual_s > 0
    benchmark.extra_info["move_virtual_s"] = round(move_virtual_s, 3)


def test_failover_penalty(benchmark):
    """The first call after a move pays one failed call + one Manager
    lookup; later calls run at full speed."""

    def run():
        env, ctx, stub = setup_context()
        # steady-state per-call cost before the move
        t0 = ctx.line.timeline.now
        stub(**SHAFT_ARGS)
        normal = ctx.line.timeline.now - t0
        ctx.sch_move("shaft", "lerc-cray")
        t0 = ctx.line.timeline.now
        stub(**SHAFT_ARGS)  # stale cache: fails, re-looks-up, retries
        first_after_move = ctx.line.timeline.now - t0
        t0 = ctx.line.timeline.now
        stub(**SHAFT_ARGS)
        settled = ctx.line.timeline.now - t0
        return normal, first_after_move, settled, stub.failovers

    normal, first, settled, failovers = benchmark(run)
    assert failovers == 1
    assert first > settled  # the failover penalty is visible
    benchmark.extra_info.update(
        {
            "percall_before_ms": round(normal * 1e3, 2),
            "first_after_move_ms": round(first * 1e3, 2),
            "settled_after_move_ms": round(settled * 1e3, 2),
        }
    )


def test_move_off_loaded_machine_payoff(benchmark):
    """The paper's motivation: 'when the load on the current machine
    grows too large and a more lightly loaded machine is available.'
    With a 95%-loaded host, N remaining calls repay the move cost."""

    def run():
        env, ctx, stub = setup_context()
        env.park["lerc-rs6000"].load = 0.95
        env.reset_traces()
        stub(**SHAFT_ARGS)
        loaded_call = env.traces[-1].total_s
        t0 = ctx.line.timeline.now
        ctx.sch_move("shaft", "lerc-sgi480")  # idle machine, same subnet
        move_cost = ctx.line.timeline.now - t0
        stub(**SHAFT_ARGS)  # failover call
        env.reset_traces()
        stub(**SHAFT_ARGS)
        idle_call = env.traces[-1].total_s
        saved_per_call = loaded_call - idle_call
        breakeven = move_cost / saved_per_call if saved_per_call > 0 else float("inf")
        return loaded_call, idle_call, move_cost, breakeven

    loaded, idle, move_cost, breakeven = benchmark(run)
    assert idle < loaded
    assert breakeven < 1e4  # the move pays off within a simulation run
    benchmark.extra_info.update(
        {
            "loaded_call_ms": round(loaded * 1e3, 3),
            "idle_call_ms": round(idle * 1e3, 3),
            "move_cost_s": round(move_cost, 3),
            "breakeven_calls": round(breakeven, 1),
        }
    )
