"""The modelled half of the transient gate, in tier-1.

The paper's Table-2 scenario — the F100's 1 s throttle transient with
all four adapted executables remote — run on the sequential path (sync
dispatch, a fresh Jacobian every Newton iteration) and on the
overlapped path (``CallBatch`` dispatch, Jacobian carried across
steps).  Virtual time is a property of the run, not of the box, so the
floor cannot flake: overlap plus reuse must stay at least 3x cheaper in
modelled time.  Both arms' exact clocks and call counts are the
contract's ``transient/floor`` row (``tests/contract/golden.json``).
(The *wall* ratio of the same two runs is what
``benchmarks/bench_transient_gate.py`` measures.)
"""

from tests.contract.scenarios import run_transient


def test_overlap_with_reuse_is_at_least_3x_cheaper_in_virtual_time():
    sync = run_transient("sync", jac_reuse=False)
    overlap = run_transient("overlap", jac_reuse=True)
    assert all(t.dispatch == "sync" for t in sync.env.traces)
    assert sum(t.dispatch == "overlap" for t in overlap.env.traces) > 100
    assert sync.env.clock.now / overlap.env.clock.now >= 3.0  # reads 6.1
