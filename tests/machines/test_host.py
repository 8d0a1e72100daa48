"""Tests for virtual machines, processes, and the standard park."""

import pytest

from repro.machines import (
    SITE_ARIZONA,
    SITE_LERC,
    SPARC,
    Machine,
    MachineError,
    ProcessState,
    standard_park,
)


def make_machine(**kw):
    defaults = dict(hostname="test.host", architecture=SPARC, site="lab", subnet="a")
    defaults.update(kw)
    return Machine(**defaults)


class TestExecutables:
    def test_install_and_lookup(self):
        m = make_machine()
        m.install("/usr/npss/bin/shaft", "payload")
        assert m.executable_at("/usr/npss/bin/shaft") == "payload"

    def test_missing_executable_raises(self):
        m = make_machine()
        with pytest.raises(MachineError, match="no executable"):
            m.executable_at("/nope")


class TestProcesses:
    def test_spawn_assigns_unique_pids(self):
        m = make_machine()
        m.install("/bin/x", object())
        p1, p2 = m.spawn("/bin/x"), m.spawn("/bin/x")
        assert p1.pid != p2.pid
        assert p1.alive and p2.alive
        assert len(m.running_processes) == 2

    def test_spawn_unknown_path_raises(self):
        m = make_machine()
        with pytest.raises(MachineError):
            m.spawn("/nope")

    def test_kill(self):
        m = make_machine()
        m.install("/bin/x", object())
        p = m.spawn("/bin/x")
        m.kill(p.pid)
        assert p.state is ProcessState.STOPPED
        assert len(m.running_processes) == 0
        with pytest.raises(MachineError):
            m.process(p.pid)

    def test_process_address(self):
        m = make_machine(hostname="cray-ymp.lerc.nasa.gov")
        m.install("/bin/x", object())
        p = m.spawn("/bin/x")
        assert p.address == f"cray-ymp.lerc.nasa.gov:{p.pid}"

    def test_shutdown_fails_all_processes(self):
        m = make_machine()
        m.install("/bin/x", object())
        p = m.spawn("/bin/x")
        m.shutdown()
        assert p.state is ProcessState.FAILED
        assert not m.up
        with pytest.raises(MachineError, match="down"):
            m.spawn("/bin/x")

    def test_boot_after_shutdown(self):
        m = make_machine()
        m.install("/bin/x", object())
        m.shutdown()
        m.boot()
        assert m.spawn("/bin/x").alive

    def test_compute_seconds_uses_load(self):
        m = make_machine(load=0.5)
        assert m.compute_seconds(1e6) == pytest.approx(0.2)


class TestStandardPark:
    def test_park_has_papers_machines(self):
        park = standard_park()
        for nick in (
            "lerc-sparc10",
            "lerc-sgi480",
            "lerc-sgi420",
            "lerc-cray",
            "lerc-convex",
            "lerc-rs6000",
            "ua-sparc10",
            "ua-sgi340",
        ):
            assert nick in park

    def test_lookup_by_hostname(self):
        park = standard_park()
        assert park["cray-ymp.lerc.nasa.gov"] is park["lerc-cray"]

    def test_unknown_machine_raises(self):
        park = standard_park()
        with pytest.raises(MachineError):
            park["vax780"]

    def test_sites(self):
        park = standard_park()
        sites = [m.site for m in park]
        assert sites.count(SITE_ARIZONA) == 2
        assert set(sites) == {SITE_ARIZONA, SITE_LERC}

    def test_table1_tier1_same_subnet(self):
        """Sparc 10 -> SGI 4D/480 is 'local Ethernet' in Table 1."""
        park = standard_park()
        a, b = park["lerc-sparc10"], park["lerc-sgi480"]
        assert a.site == b.site and a.subnet == b.subnet

    def test_table1_tier2_gateway_pairs(self):
        """Sparc 10 -> Convex and SGI -> Cray are 'same building,
        multiple gateways' in Table 1."""
        park = standard_park()
        for src, dst in (("lerc-sparc10", "lerc-convex"), ("lerc-sgi480", "lerc-cray")):
            a, b = park[src], park[dst]
            assert a.site == b.site and a.subnet != b.subnet

    def test_table1_tier3_cross_site(self):
        park = standard_park()
        assert park["ua-sparc10"].site != park["lerc-rs6000"].site

    def test_duplicate_nickname_rejected(self):
        park = standard_park()
        with pytest.raises(MachineError):
            park.add("lerc-cray", make_machine())
