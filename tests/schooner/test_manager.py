"""Tests for the Schooner Manager: startup protocols, name databases,
type checking, lines semantics, shared procedures."""

import pytest

from repro.machines import Language, ProcessState
from repro.schooner import (
    CallFailed,
    DuplicateName,
    Executable,
    LineState,
    LineTerminated,
    Manager,
    ManagerError,
    ManagerMode,
    ModuleContext,
    NameNotFound,
    Procedure,
    TypeCheckError,
)
from repro.uts import INTEGER, ParamMode, Parameter, Signature, SpecFile

from .conftest import SHAFT_ARGS, SHAFT_PATH, SHAFT_SPEC


class TestContactProtocol:
    def test_contact_creates_line(self, manager, env):
        line = manager.contact("shaft-module", env.park["ua-sparc10"])
        assert line.state is LineState.ACTIVE
        assert line in manager.active_lines

    def test_each_contact_gets_fresh_line(self, manager, env):
        a = manager.contact("shaft", env.park["ua-sparc10"])
        b = manager.contact("shaft", env.park["ua-sparc10"])
        assert a.line_id != b.line_id

    def test_contact_charges_a_message(self, manager, env):
        before = env.transport.stats.messages
        manager.contact("m", env.park["ua-sparc10"])
        assert env.transport.stats.messages == before + 1

    def test_terminated_manager_rejects_contact(self, manager, env):
        manager.terminate()
        with pytest.raises(ManagerError):
            manager.contact("m", env.park["ua-sparc10"])


class TestStartRemote:
    def test_start_binds_all_exports(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        records = manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        assert {r.procedure.name for r in records} == {"setshaft", "shaft"}
        assert all(r.alive for r in records)
        assert all(r.machine is env.park["lerc-rs6000"] for r in records)

    def test_one_process_hosts_the_executable(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        records = manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        assert records[0].process is records[1].process

    def test_fortran_synonyms_resolvable(self, manager, env):
        """Both name cases resolve (the section-4.1 remedy)."""
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-cray"], SHAFT_PATH)
        assert manager.lookup(line, "shaft").procedure.name == "shaft"
        assert manager.lookup(line, "SHAFT").procedure.name == "shaft"
        assert manager.lookup(line, "shaft") is manager.lookup(line, "SHAFT")

    def test_duplicate_name_within_line_rejected(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        with pytest.raises(DuplicateName):
            manager.start_remote(line, env.park["lerc-cray"], SHAFT_PATH)

    def test_same_name_across_lines_allowed(self, manager, env):
        """The lines model: multiple instances of the same module (the
        F100 network has two shaft instances)."""
        la = manager.contact("low-shaft", env.park["ua-sparc10"])
        lb = manager.contact("high-shaft", env.park["ua-sparc10"])
        ra = manager.start_remote(la, env.park["lerc-rs6000"], SHAFT_PATH)
        rb = manager.start_remote(lb, env.park["lerc-rs6000"], SHAFT_PATH)
        assert manager.lookup(la, "shaft").instance_id != manager.lookup(lb, "shaft").instance_id
        assert ra[0].process is not rb[0].process

    def test_machine_down_propagates(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        env.park["lerc-rs6000"].shutdown()
        with pytest.raises(ManagerError):
            manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)

    def test_unknown_path_propagates(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        with pytest.raises(ManagerError):
            manager.start_remote(line, env.park["lerc-rs6000"], "/no/such/file")


class TestSingleProgramMode:
    def test_duplicate_module_rejected_globally(self, env):
        """The original model's restriction: 'an original assumption in
        Schooner was that only one procedure of a given name would be
        present in a program.'"""
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.SINGLE_PROGRAM)
        line = manager.contact("program", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        with pytest.raises(DuplicateName):
            manager.start_remote(line, env.park["lerc-cray"], SHAFT_PATH)

    def test_second_thread_of_control_rejected(self, env):
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.SINGLE_PROGRAM)
        manager.contact("program", env.park["ua-sparc10"])
        with pytest.raises(ManagerError):
            manager.contact("another", env.park["ua-sparc10"])

    def test_quit_terminates_whole_program_and_manager(self, env):
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.SINGLE_PROGRAM)
        line = manager.contact("program", env.park["ua-sparc10"])
        records = manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        manager.quit_line(line)
        assert not any(r.alive for r in records)
        assert not manager.running  # the original Manager dies with its program


class TestLinesShutdown:
    def test_quit_terminates_only_own_line(self, manager, env):
        """'when an AVS module is removed from the network ... the
        Manager terminates only the remote procedures within the
        affected line.'"""
        la = manager.contact("a", env.park["ua-sparc10"])
        lb = manager.contact("b", env.park["ua-sparc10"])
        ra = manager.start_remote(la, env.park["lerc-rs6000"], SHAFT_PATH)
        rb = manager.start_remote(lb, env.park["lerc-cray"], SHAFT_PATH)
        manager.quit_line(la)
        assert not any(r.alive for r in ra)
        assert all(r.alive for r in rb)
        assert la.state is LineState.TERMINATED
        assert lb.state is LineState.ACTIVE
        assert manager.running  # persistent Manager survives

    def test_quit_is_idempotent(self, manager, env):
        line = manager.contact("a", env.park["ua-sparc10"])
        manager.quit_line(line)
        manager.quit_line(line)

    def test_terminated_line_rejects_operations(self, manager, env):
        line = manager.contact("a", env.park["ua-sparc10"])
        manager.quit_line(line)
        with pytest.raises(LineTerminated):
            manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)

    def test_error_in_line_same_scope_as_quit(self, manager, env, shaft_import_spec):
        home = env.park["ua-sparc10"]
        a = ModuleContext(manager=manager, module_name="a", machine=home)
        b = ModuleContext(manager=manager, module_name="b", machine=home)
        (ra, _) = a.sch_contact_schx("lerc-rs6000", SHAFT_PATH)
        rb = b.sch_contact_schx("lerc-cray", SHAFT_PATH)
        ra.machine.crash_process(ra.process.pid)
        with pytest.raises(CallFailed):
            a.import_proc(shaft_import_spec.import_named("shaft"))(**SHAFT_ARGS)
        # the call's StaleBinding terminated line a, and line a alone
        assert a._line.state is LineState.TERMINATED
        assert all(r.alive for r in rb)

    def test_manager_handles_multiple_runs(self, manager, env):
        """'The persistent nature of the Manager process ... allows
        multiple runs of a simulation to be handled.'"""
        for _ in range(3):
            line = manager.contact("run", env.park["ua-sparc10"])
            manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
            manager.quit_line(line)
        assert manager.running
        assert manager.runs_handled == 3

    def test_shutdown_all_leaves_every_process_terminal(self, manager, env):
        la = manager.contact("a", env.park["ua-sparc10"])
        lb = manager.contact("b", env.park["ua-sparc10"])
        ra = manager.start_remote(la, env.park["lerc-rs6000"], SHAFT_PATH)
        rb = manager.start_remote(lb, env.park["lerc-cray"], SHAFT_PATH)
        # one host dies before shutdown: its processes are already FAILED
        env.park["lerc-cray"].crash()
        manager.shutdown_all()
        for r in (*ra, *rb):
            assert r.process.terminal, r.process
        # crashed processes keep FAILED; cleanly stopped ones are STOPPED
        assert all(r.process.state is ProcessState.FAILED for r in rb)
        assert all(r.process.state is ProcessState.STOPPED for r in ra)

    def test_terminate_leaves_every_process_terminal(self, manager, env):
        line = manager.contact("a", env.park["ua-sparc10"])
        records = manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        manager.terminate()
        assert not manager.running
        assert all(r.process.terminal for r in records)


class TestTypeChecking:
    def test_matching_import_accepted(self, manager, env, shaft_import_spec):
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        sig = shaft_import_spec.import_named("shaft")
        assert manager.lookup(line, "shaft", sig) is not None

    def test_subset_import_accepted(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        subset = SpecFile.parse(
            'import shaft prog("incom" val integer, "dxspl" res float)'
        ).import_named("shaft")
        assert manager.lookup(line, "shaft", subset) is not None

    def test_wrong_types_rejected(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-rs6000"], SHAFT_PATH)
        bad = Signature("shaft", (Parameter("incom", ParamMode.VAL, INTEGER),
                                  Parameter("dxspl", ParamMode.VAL, INTEGER)))
        with pytest.raises(TypeCheckError):
            manager.lookup(line, "shaft", bad)

    def test_unknown_name_not_found(self, manager, env):
        line = manager.contact("m", env.park["ua-sparc10"])
        with pytest.raises(NameNotFound):
            manager.lookup(line, "frobnicate")

    def test_typecheck_through_synonym(self, manager, env, shaft_import_spec):
        """Looking up SHAFT (Cray case) still type-checks against the
        canonical export."""
        line = manager.contact("m", env.park["ua-sparc10"])
        manager.start_remote(line, env.park["lerc-cray"], SHAFT_PATH)
        sig = shaft_import_spec.import_named("shaft")
        upper_sig = Signature(name="SHAFT", params=sig.params, kind=sig.kind)
        assert manager.lookup(line, "SHAFT", upper_sig) is not None


class TestSharedProcedures:
    def make_shared_exe(self):
        spec = SpecFile.parse('export atmos prog("alt" val double, "t" res double)')
        return Executable(
            "atmosphere",
            (
                Procedure(
                    name="atmos",
                    signature=spec.export_named("atmos"),
                    impl=lambda alt: 288.15 - 0.0065 * alt,
                    language=Language.C,
                ),
            ),
        )

    def test_shared_visible_from_all_lines(self, manager, env):
        env.park["lerc-convex"].install("/npss/bin/atmos", self.make_shared_exe())
        manager.start_shared(env.park["lerc-convex"], "/npss/bin/atmos")
        la = manager.contact("a", env.park["ua-sparc10"])
        lb = manager.contact("b", env.park["ua-sparc10"])
        assert manager.lookup(la, "atmos") is manager.lookup(lb, "atmos")

    def test_line_database_searched_first(self, manager, env):
        """'Mapping requests ... checked first against procedures in the
        line from which the request is received, and then against a list
        of shared procedures.'"""
        env.park["lerc-convex"].install("/npss/bin/atmos", self.make_shared_exe())
        shared = manager.start_shared(env.park["lerc-convex"], "/npss/bin/atmos")
        line = manager.contact("a", env.park["ua-sparc10"])
        env.park["lerc-rs6000"].install("/npss/bin/atmos", self.make_shared_exe())
        manager.start_remote(line, env.park["lerc-rs6000"], "/npss/bin/atmos")
        rec = manager.lookup(line, "atmos")
        assert rec.machine is env.park["lerc-rs6000"]
        assert rec.instance_id != shared[0].instance_id

    def test_line_quit_spares_shared(self, manager, env):
        env.park["lerc-convex"].install("/npss/bin/atmos", self.make_shared_exe())
        (shared,) = manager.start_shared(env.park["lerc-convex"], "/npss/bin/atmos")
        line = manager.contact("a", env.park["ua-sparc10"])
        assert manager.lookup(line, "atmos") is shared
        manager.quit_line(line)
        assert shared.alive

    def test_stop_shared(self, manager, env):
        env.park["lerc-convex"].install("/npss/bin/atmos", self.make_shared_exe())
        (shared,) = manager.start_shared(env.park["lerc-convex"], "/npss/bin/atmos")
        manager.stop_shared(shared)
        assert not shared.alive
        line = manager.contact("a", env.park["ua-sparc10"])
        with pytest.raises(NameNotFound):
            manager.lookup(line, "atmos")

    def test_shared_requires_lines_mode(self, env):
        manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.SINGLE_PROGRAM)
        env.park["lerc-convex"].install("/npss/bin/atmos", self.make_shared_exe())
        with pytest.raises(ManagerError):
            manager.start_shared(env.park["lerc-convex"], "/npss/bin/atmos")
