"""The computational engine test cell (paper §2.1/§2.4).

NPSS is "the computational equivalent of an engine test cell": this
example starts the F100, flies it through a climb profile, monitors the
operator's gauges with a decimated display (§2.3 filtering), lets the
operator move the fuel dial in the middle of a run (§2.4: "modify them
during a simulation run") and exports that run for three graphics
packages (§2.3), and then repeats a throttle slam with an engine
degraded by foreign-object damage and turbine erosion — "test
operation of the engine in the presence of failures."

Run:  python examples/engine_test_cell.py
"""

import tempfile
from pathlib import Path

from repro.core import (
    AVSFieldWriter,
    CSVWriter,
    KhorosWriter,
    MonitorPanel,
    NPSSExecutive,
    monitor_transient,
)
from repro.tess import (
    FailureScenario,
    FlightCondition,
    FlightProfile,
    FODDamage,
    Schedule,
    TurbineErosion,
    apply_scenario,
    build_f100,
    fly_profile,
)

SLS = FlightCondition(0.0, 0.0)


def main() -> None:
    # --- fly a climb profile ----------------------------------------------
    print("=== flight profile: takeoff roll and climb-out ===")
    engine = build_f100()
    profile = FlightProfile.of(
        # (time s, altitude m, Mach, fuel kg/s)
        (0.0, 0.0, 0.00, 1.35),
        (2.0, 0.0, 0.25, 1.50),   # takeoff roll, throttle up
        (5.0, 600.0, 0.40, 1.50),  # rotate and climb
        (8.0, 1800.0, 0.50, 1.45),  # climb power
    )
    res = fly_profile(engine, profile, dt=0.05, leg_seconds=1.0)
    print(f"{'t s':>5} {'alt m':>7} {'Mach':>5} {'wf':>5} {'N1':>6} "
          f"{'thrust kN':>10} {'T4 K':>6}")
    for i in range(0, res.t.size, max(1, res.t.size // 9)):
        print(f"{res.t[i]:5.1f} {res.altitude[i]:7.0f} {res.mach[i]:5.2f} "
              f"{res.wf[i]:5.2f} {res.n1[i]:6.3f} {res.thrust[i]/1e3:10.1f} "
              f"{res.t4[i]:6.0f}")
    print(f"max T4 during the mission: {res.max_t4:.0f} K")

    # --- monitored throttle slam -------------------------------------------
    print()
    print("=== monitored throttle slam (display keeps every 3rd sample) ===")
    slam = Schedule.of((0.0, 1.30), (0.15, 1.50), (2.0, 1.50))
    tr = engine.transient(SLS, slam, t_end=2.0, dt=0.02)
    panel = MonitorPanel.standard("N1", "N2", "thrust", "T4", keep_every=3)
    monitor_transient(
        panel, tr,
        lambda t, n1, n2: engine._solve_gas_path(SLS, slam.value(t), n1, n2),
    )
    print(panel.render())
    print(f"(display consumed {panel.samples_kept} of "
          f"{panel.samples_offered} simulation samples)")

    # --- the operator moves the fuel dial mid-run -----------------------------
    print()
    print("=== interactive run: fuel dial 1.35 -> 1.50 kg/s at t = 0.5 s ===")
    with NPSSExecutive() as ex:
        ex.modules = ex.build_f100_network()
        for dial in ("fuel flow", "fuel flow-op"):
            ex.modules["combustor"].set_param(dial, 1.35)
        run = ex.run_interactive([
            (0.5, {}),
            (0.5, {("combustor", "fuel flow"): 1.5,
                   ("combustor", "fuel flow-op"): 1.5}),
        ])
    print(f"N1 {run.n1[0]:.4f} -> {run.n1[-1]:.4f}, thrust "
          f"{run.thrust[0]/1e3:.1f} -> {run.thrust[-1]/1e3:.1f} kN "
          f"over {run.t.size} stitched samples")
    with tempfile.TemporaryDirectory() as out:
        for writer in (CSVWriter(), AVSFieldWriter(), KhorosWriter()):
            path = Path(out) / f"interactive{writer.suffix}"
            path.write_text(writer.export(run))
            print(f"--- {path.name} ({type(writer).__name__})")
            print("\n".join(path.read_text().splitlines()[:3]))

    # --- the same slam on a damaged engine -----------------------------------
    print()
    print("=== failure study: FOD + turbine erosion ===")
    scenario = FailureScenario(
        "rough service", (FODDamage(flow_loss=0.04, efficiency_loss=0.03),
                          TurbineErosion(efficiency_loss=0.03)),
    )
    print(scenario.describe())
    sick = apply_scenario(build_f100, scenario)
    healthy_op = engine.balance(SLS, 1.5)
    sick_op = sick.balance(SLS, 1.5)
    print(f"{'':>16} {'healthy':>10} {'degraded':>10}")
    print(f"{'thrust kN':>16} {healthy_op.thrust_N/1e3:>10.1f} "
          f"{sick_op.thrust_N/1e3:>10.1f}")
    print(f"{'T4 K':>16} {healthy_op.t4:>10.0f} {sick_op.t4:>10.0f}")
    print(f"{'airflow kg/s':>16} {healthy_op.airflow:>10.1f} "
          f"{sick_op.airflow:>10.1f}")
    print(f"{'N2':>16} {healthy_op.n2:>10.4f} {sick_op.n2:>10.4f}")
    loss = 1 - sick_op.thrust_N / healthy_op.thrust_N
    hot = sick_op.t4 - healthy_op.t4
    print(f"\nthe degraded engine gives {loss:.1%} less thrust and runs "
          f"{hot:.0f} K hotter at the same fuel flow — the margin the "
          f"test cell exists to quantify")


if __name__ == "__main__":
    main()
