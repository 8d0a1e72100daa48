"""Tests for trace analysis."""

import pytest

from repro.core import REMOTE_PATHS, install_tess_executables
from repro.schooner import (
    Manager,
    ManagerMode,
    ModuleContext,
    SchoonerEnvironment,
    render_summary,
    summarize,
)
from repro.uts import SpecFile
from repro.core.specs import DUCT_SPEC_SOURCE

DUCT_IMPORTS = SpecFile.parse(DUCT_SPEC_SOURCE).as_imports()


@pytest.fixture
def traced_env():
    env = SchoonerEnvironment.standard()
    install_tess_executables(env.park)
    manager = Manager(env=env, host=env.park["ua-sparc10"], mode=ManagerMode.LINES)
    ctx = ModuleContext(manager=manager, module_name="m", machine=env.park["ua-sparc10"])
    ctx.sch_contact_schx("lerc-rs6000", REMOTE_PATHS["duct"])
    ctx.import_proc(DUCT_IMPORTS.import_named("setduct"))(dpqp=0.02)
    duct = ctx.import_proc(DUCT_IMPORTS.import_named("duct"))
    for _ in range(5):
        duct(w=10.0, tt=300.0, pt=1e5, far=0.0)
    return env


class TestSummarize:
    def test_groups_by_procedure(self, traced_env):
        s = summarize(traced_env.traces)
        assert set(s) == {"setduct", "duct"}
        assert s["duct"].calls == 5
        assert s["setduct"].calls == 1

    def test_phase_accounting_consistent(self, traced_env):
        s = summarize(traced_env.traces)["duct"]
        parts = s.network_s + s.client_cpu_s + s.server_cpu_s + s.compute_s
        assert parts == pytest.approx(s.total_s, rel=1e-9)

    def test_network_share_dominates_over_wan(self, traced_env):
        s = summarize(traced_env.traces)["duct"]
        assert s.network_share > 0.9  # 1993 Internet, tiny payloads
        assert s.overhead_share > 0.9

    def test_routes_recorded(self, traced_env):
        s = summarize(traced_env.traces)["duct"]
        assert s.routes == {
            ("sparc10.cs.arizona.edu", "rs6000.lerc.nasa.gov"): 5
        }

    def test_mean_and_bytes(self, traced_env):
        s = summarize(traced_env.traces)["duct"]
        assert s.mean_ms > 0
        # the duct call is symmetric: 4 doubles each way, payload only
        # (headers are accounted separately by TrafficStats)
        assert s.request_bytes == s.reply_bytes == 5 * 32

    def test_empty(self):
        assert summarize([]) == {}
        assert render_summary([]) == "(no RPC traces)"

    def test_render_table(self, traced_env):
        text = render_summary(traced_env.traces)
        assert "duct" in text and "setduct" in text
        assert "TOTAL" in text
        assert "virtual s" in text
