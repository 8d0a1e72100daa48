"""The modelled half of the transient gate, in tier-1.

The paper's Table-2 scenario — the F100's 1 s throttle transient with
all four adapted executables remote — run on the sequential path (sync
dispatch, a fresh Jacobian every Newton iteration) and on the
overlapped path (``CallBatch`` dispatch, Jacobian carried across
steps).  Virtual time and RPC counts are properties of the run, not of
the box, so the floor cannot flake: overlap plus reuse must stay at
least 3x cheaper in modelled time, and both arms must make exactly the
calls they make today.  (The *wall* ratio of the same two runs is what
``benchmarks/bench_transient_gate.py`` measures.)
"""

from repro.core import NPSSExecutive

#: Table 2's placement: every adapted executable runs remote
ALL_REMOTE = {
    "combustor": "sgi4d340.cs.arizona.edu",
    "duct-bypass": "cray-ymp.lerc.nasa.gov",
    "duct-core": "cray-ymp.lerc.nasa.gov",
    "nozzle": "sgi4d420.lerc.nasa.gov",
    "shaft-low": "rs6000.lerc.nasa.gov",
    "shaft-high": "rs6000.lerc.nasa.gov",
}


def run_transient(dispatch: str, jac_reuse: bool) -> NPSSExecutive:
    ex = NPSSExecutive(avs_machine="ua-sparc10", dispatch=dispatch, jac_reuse=jac_reuse)
    ex.modules = ex.build_f100_network()
    ex.modules["combustor"].set_param("fuel flow", 1.35)
    ex.modules["combustor"].set_param("fuel flow-op", 1.45)
    ex.modules["combustor"].set_param("ramp seconds", 0.3)
    ex.modules["system"].set_param("transient seconds", 1.0)
    ex.modules["system"].set_param("steady-state method", "Newton-Raphson")
    ex.modules["system"].set_param("transient method", "Modified Euler")
    for module, machine in ALL_REMOTE.items():
        ex.modules[module].set_param("remote machine", machine)
    ex.execute()
    return ex


def test_overlap_with_reuse_is_at_least_3x_cheaper_in_virtual_time():
    sync = run_transient("sync", jac_reuse=False)
    overlap = run_transient("overlap", jac_reuse=True)
    assert len(sync.env.traces) == 4530
    assert len(overlap.env.traces) == 1150
    assert all(t.dispatch == "sync" for t in sync.env.traces)
    assert sum(t.dispatch == "overlap" for t in overlap.env.traces) > 100
    assert sync.env.clock.now.hex() == "0x1.2e19776f14076p+9"  # 604.2 s
    assert overlap.env.clock.now.hex() == "0x1.8bef3299f7cefp+6"  # 99.0 s
    assert sync.env.clock.now / overlap.env.clock.now >= 3.0  # reads 6.1
