"""Lines and procedure migration (paper section 4.2).

Demonstrates the extended Schooner model:

* two module instances with the *same* remote procedure names run in
  separate lines (impossible under the original single-program model),
* a procedure moves off a machine approaching scheduled downtime, with
  stale client caches self-correcting on the next call,
* a stateful procedure carries its declared state variables along,
* a shared procedure, "not part of the line from which the startup
  request originated, but available for use by any line", outlives one
  caller's ``sch_i_quit``, moves for every line at once, and stops only
  when the Manager stops it.

Run:  python examples/migration_and_lines.py
"""

from repro.core import build_shaft_executable, REMOTE_PATHS
from repro.core.specs import SHAFT_SPEC_SOURCE
from repro.machines import Language
from repro.schooner import (
    DuplicateName,
    Executable,
    Manager,
    ManagerMode,
    ModuleContext,
    NameNotFound,
    Procedure,
    SchoonerEnvironment,
)
from repro.uts import DOUBLE, SpecFile


def main() -> None:
    env = SchoonerEnvironment.standard()
    shaft_exe = build_shaft_executable()
    path = REMOTE_PATHS["shaft"]
    for machine in env.park:
        machine.install(path, shaft_exe)

    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    avs = env.park["ua-sparc10"]

    # --- lines: two shaft instances, same procedure names -----------------
    print("=== lines: duplicate procedure names across modules ===")
    low = ModuleContext(manager=manager, module_name="low-shaft", machine=avs)
    high = ModuleContext(manager=manager, module_name="high-shaft", machine=avs)
    low.sch_contact_schx("rs6000.lerc.nasa.gov", path)
    high.sch_contact_schx("rs6000.lerc.nasa.gov", path)
    print(f"both instances running: {len(manager.active_lines)} lines, "
          f"{len(env.park['lerc-rs6000'].running_processes)} processes on the RS6000")
    try:
        manager.start_remote(low.line, env.park["lerc-cray"], path)
    except DuplicateName as exc:
        print(f"within one line duplicates are still rejected: {exc}")

    # --- migration off a loaded machine ------------------------------------
    print()
    print("=== migration: move off a machine approaching downtime ===")
    spec = SpecFile.parse(SHAFT_SPEC_SOURCE).as_imports()
    # setshaft leaves the shaft's declared state in its process: the
    # compute procedure reads it, and a move ships it along
    low.import_proc(spec.import_named("setshaft"))(inertia=2.2, omegad=1000.0, mecheff=1.0)
    stub = low.import_proc(spec.import_named("shaft"))
    args = dict(ecom=[12.9e6, 0, 0, 0], incom=1, etur=[13.4e6, 0, 0, 0], intur=1,
                ecorr=0.0, xspool=1.0, xmyi=2.2)
    before = stub(**args)["dxspl"]
    print(f"dxspl from the RS6000:      {before:.6e}")

    low.sch_move("shaft", "cray-ymp.lerc.nasa.gov")
    print("moved the low shaft's procedures to the Cray "
          "(RS6000 going down for maintenance)")
    after = stub(**args)["dxspl"]
    print(f"dxspl after the move:       {after:.6e}")
    print(f"stub failovers (stale-cache refreshes): {stub.failovers}")
    print(f"the high shaft was untouched: "
          f"{len(env.park['lerc-rs6000'].running_processes)} process(es) "
          f"still on the RS6000")

    # --- stateful migration -------------------------------------------------
    print()
    print("=== stateful migration: declared state travels ===")
    acc_spec = SpecFile.parse('export accum prog("x" val double, "total" res double)')

    def accum(x, _state):
        _state["total"] = _state.get("total", 0.0) + x
        return _state["total"]

    acc_exe = Executable(
        "accumulator",
        (Procedure(name="accum", signature=acc_spec.export_named("accum"),
                   impl=accum, language=Language.C, stateless=False,
                   state_spec={"total": DOUBLE}),),
    )
    for nick in ("lerc-sgi480", "lerc-convex"):
        env.park[nick].install("/bin/accum", acc_exe)
    mod = ModuleContext(manager=manager, module_name="accum", machine=avs)
    mod.sch_contact_schx("lerc-sgi480", "/bin/accum")
    acc = mod.import_proc(acc_spec.as_imports(), name="accum")
    print("accumulating on the SGI:", acc.call1(x=1.0), acc.call1(x=2.0))
    mod.sch_move("accum", "lerc-convex")
    print("after moving to the Convex, the running total continues:",
          acc.call1(x=4.0))

    # --- a shared procedure ---------------------------------------------------
    print()
    print("=== shared procedure: one instance, every line ===")
    atmos_spec = SpecFile.parse('export atmos prog("alt" val double, "t" res double)')
    atmos_exe = Executable(
        "atmosphere",
        (Procedure(name="atmos", signature=atmos_spec.export_named("atmos"),
                   impl=lambda alt: 288.15 - 0.0065 * alt, language=Language.C),),
    )
    env.park["lerc-convex"].install("/bin/atmos", atmos_exe)
    (shared,) = manager.start_shared(env.park["lerc-convex"], "/bin/atmos")
    inlet = ModuleContext(manager=manager, module_name="inlet", machine=avs)
    nozzle = ModuleContext(manager=manager, module_name="nozzle", machine=avs)
    inlet_atmos = inlet.import_proc(atmos_spec.as_imports(), name="atmos")
    nozzle_atmos = nozzle.import_proc(atmos_spec.as_imports(), name="atmos")
    print(f"inlet line asks T(1000 m) = {inlet_atmos.call1(alt=1000.0):.2f} K, "
          f"nozzle line asks T(0 m) = {nozzle_atmos.call1(alt=0.0):.2f} K, "
          f"both from the one process on the Convex")
    inlet.sch_i_quit()
    print(f"after the inlet line quits, the nozzle line still gets "
          f"T(2000 m) = {nozzle_atmos.call1(alt=2000.0):.2f} K; shared process "
          f"alive: {shared.process.alive}")
    env.park["lerc-cray"].install("/bin/atmos", atmos_exe)
    shared = manager.move(nozzle.line, "atmos", env.park["lerc-cray"], "/bin/atmos")
    print(f"moved the shared procedure to the Cray for every line: "
          f"T(0 m) = {nozzle_atmos.call1(alt=0.0):.2f} K from {shared.machine.hostname}")
    manager.stop_shared(shared)
    try:
        nozzle_atmos.call1(alt=0.0)
    except NameNotFound:
        print(f"stop_shared ended it for every line: shared process alive: "
              f"{shared.process.alive}")

    # --- per-line shutdown ----------------------------------------------------
    print()
    low.sch_i_quit()
    print(f"low shaft destroyed: {len(manager.active_lines)} lines remain; "
          f"Manager persistent: {manager.running}")


if __name__ == "__main__":
    main()
