"""A level-1 cycle design study (paper §2.1: fidelity level 1, "a
steady-state thermodynamic model").

Sweeps overall pressure ratio and turbine inlet temperature through the
quick cycle-analysis tool, prints the design carpet, and validates the
chosen point against the full mapped deck — the level-1 -> level-1.5
hand-off a designer would actually perform — and balances a second
engine configuration, a single-spool turbojet built from the same
component library (§2.4: "model a wide range of engines"), beside the
F100 at sea-level static, then steps its fuel flow.

Run:  python examples/cycle_design_study.py
"""

from repro.tess import FlightCondition, Schedule, SingleSpoolTurbojet, build_f100
from repro.tess.cycle import CycleInputs, cycle_point


def main() -> None:
    print("=== design carpet: thrust [kN] / SFC [mg/(N s)] vs OPR and T4 ===")
    oprs = [16.0, 20.0, 24.0, 28.0]
    t4s = [1450.0, 1550.0, 1650.0]
    header = "OPR \\ T4" + "".join(f"{t4:>18.0f}" for t4 in t4s)
    print(header)
    best = None
    for opr in oprs:
        cells = []
        for t4 in t4s:
            s = cycle_point(CycleInputs(overall_pr=opr, t4_K=t4))
            cells.append(f"{s.thrust_N/1e3:7.1f}/{s.sfc_kg_per_Ns*1e6:5.2f}")
            if best is None or s.sfc_kg_per_Ns < best[0].sfc_kg_per_Ns:
                best = (s, opr, t4)
        print(f"{opr:>8.0f}" + "".join(f"{c:>18}" for c in cells))

    s, opr, t4 = best
    print(f"\nbest SFC at OPR={opr:.0f}, T4={t4:.0f} K: "
          f"{s.sfc_kg_per_Ns*1e6:.2f} mg/(N s), thrust {s.thrust_N/1e3:.1f} kN")

    print("\n=== hand-off: validate the F100 point against the mapped deck ===")
    engine = build_f100()
    deck = engine.balance(FlightCondition(0.0, 0.0), engine.spec.wf_design)
    level1 = cycle_point(
        CycleInputs(
            airflow_kgs=deck.airflow,
            fan_pr=deck.stations["13"].Pt / deck.stations["2"].Pt,
            overall_pr=deck.stations["3"].Pt / deck.stations["2"].Pt,
            bypass_ratio=deck.bypass_ratio,
            t4_K=deck.t4,
            fan_eta=engine.fan.map.eta_design,
            hpc_eta=engine.hpc.map.eta_design,
        )
    )
    print(f"{'':>24} {'level 1 (cycle)':>16} {'mapped deck':>13}")
    print(f"{'thrust kN':>24} {level1.thrust_N/1e3:>16.1f} {deck.thrust_N/1e3:>13.1f}")
    print(f"{'fuel kg/s':>24} {level1.fuel_kgs:>16.3f} {deck.wf:>13.3f}")
    err = abs(level1.thrust_N - deck.thrust_N) / deck.thrust_N
    print(f"\nlevel-1 vs deck thrust difference: {err:.1%} — the quick model "
          f"is good enough to pick the cycle, the deck refines it")

    print("\n=== a second configuration: single-spool turbojet beside the F100 (SLS) ===")
    jet = SingleSpoolTurbojet()
    sls = FlightCondition(0.0, 0.0)
    closure = jet.evaluate(sls, jet.spec.wf_design, 1.0, jet.design_x).residuals
    print(f"turbojet design closure: largest residual {abs(closure).max():.1e}")
    print(f"{'':>14} {'thrust kN':>10} {'airflow kg/s':>13} {'fuel kg/s':>10} {'T4 K':>6}")
    for name, op in (("F100 turbofan", deck),
                     ("turbojet", jet.balance(sls, jet.spec.wf_design))):
        print(f"{name:>14} {op.thrust_N/1e3:>10.1f} {op.airflow:>13.1f} "
              f"{op.wf:>10.3f} {op.t4:>6.0f}")
    slam = Schedule.of((0.0, 0.40), (0.2, 0.45), (1.5, 0.45))
    ode, thrust = jet.transient(sls, slam, t_end=1.5, dt=0.02)
    print(f"turbojet fuel step 0.40 -> 0.45 kg/s: N {ode.y[0, 0]:.3f} -> "
          f"{ode.y[-1, 0]:.3f}, thrust {thrust[0]/1e3:.1f} -> {thrust[-1]/1e3:.1f} kN "
          f"in 1.5 s")


if __name__ == "__main__":
    main()
