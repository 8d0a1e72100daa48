"""``python -m repro`` — a guided tour of the reproduction.

Runs the headline demonstration: the F100 in the prototype executive,
all-local and then distributed per the paper's Table 2, with the
correctness check and the modelled 1993 cost.

``python -m repro faults [...]`` runs the fault-injection/failover demo
instead (see :mod:`repro.faults.demo` for its options),
``python -m repro serve [...]`` serves many concurrent sessions over
one shared installation —
optionally sharded across OS processes with a shared-memory data plane
(``--mode shard --transport shm``; see :mod:`repro.serve.demo`), ``python -m repro chaos [...]`` runs the
deterministic chaos-soak harness over the serving stack (see
:mod:`repro.resilience.soak`), and ``python -m repro traffic [...]``
runs open-loop capacity sweeps with arrival-driven traffic (see
:mod:`repro.traffic.demo`).
"""

from __future__ import annotations

import sys


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "faults":
        from repro.faults.demo import main as faults_main

        return faults_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.demo import main as serve_main

        serve_main(argv[1:])
        return 0
    if argv and argv[0] == "chaos":
        from repro.resilience.soak import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "traffic":
        from repro.traffic.demo import main as traffic_main

        return traffic_main(argv[1:])

    from repro.avs import render_network
    from repro.core import NPSSExecutive

    print(__doc__.strip().splitlines()[0])
    print()
    executive = NPSSExecutive()
    modules = executive.build_f100_network()
    modules["system"].set_param("transient seconds", 0.5)
    modules["combustor"].set_param("fuel flow", 1.35)
    modules["combustor"].set_param("fuel flow-op", 1.5)

    print(render_network(executive.editor))
    print()
    executive.execute()
    local = executive.solution.thrust_N
    print(f"all-local: thrust {local/1e3:.1f} kN, "
          f"N1 {executive.solution.n1:.4f}, T4 {executive.solution.t4:.0f} K")

    for module, machine in {
        "combustor": "sgi4d340.cs.arizona.edu",
        "duct-bypass": "cray-ymp.lerc.nasa.gov",
        "duct-core": "cray-ymp.lerc.nasa.gov",
        "nozzle": "sgi4d420.lerc.nasa.gov",
        "shaft-low": "rs6000.lerc.nasa.gov",
        "shaft-high": "rs6000.lerc.nasa.gov",
    }.items():
        modules[module].set_param("remote machine", machine)
    executive.execute()
    remote = executive.solution.thrust_N
    print(f"Table-2 distributed: thrust {remote/1e3:.1f} kN "
          f"(agrees to {abs(remote-local)/local:.1e}), "
          f"{executive.host.remote_call_count} RPCs across "
          f"{len(executive.manager.active_lines)} lines, "
          f"{executive.env.clock.now:.0f} modelled seconds")
    print()
    print("more: examples/*.py, benchmarks/report.py, EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
