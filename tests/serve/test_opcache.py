"""The installation op-point cache: differential oracle + unit tests.

The oracle (ISSUE/ROADMAP item 4 acceptance):

* an **exact hit** returns the stored cold solution verbatim — bitwise
  equal to what a fresh cold solve of the same point produces;
* an **interpolated warm start** converges to the same solution within
  solver tolerance (and actually converges).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    OpPointCache,
    SessionSpec,
    SharedInstallation,
    serve_sessions,
)

from .test_shm import _roundtrip

#: fuel flows spaced beyond the near-window so each solo session's
#: point is a genuine cold miss
GRID = (1.30, 1.40, 1.50)


def _cold_point(wf):
    """A fresh cold solve of one point (no caching of any kind)."""
    r = serve_sessions(
        [SessionSpec(name="cold", points=(wf,))], dedup=False
    )
    return r.results[0].results[0]


def _warm_installation(points=GRID):
    """An installation whose op cache holds a cold-canonical entry for
    each grid point (single-point sessions, and a near-window tight
    enough that the grid points are genuine misses solved cold)."""
    inst = SharedInstallation.standard()
    inst.op_cache = OpPointCache(near_window=0.01)
    specs = [
        SessionSpec(name=f"seed-{i}", points=(wf,), op_cache=True)
        for i, wf in enumerate(points)
    ]
    report = serve_sessions(specs, installation=inst, dedup=False)
    assert report.op_miss == len(points)
    return inst


class TestDifferentialOracle:
    def test_exact_hit_is_bitwise_equal_to_cold_solve(self):
        inst = _warm_installation()
        report = serve_sessions(
            [SessionSpec(name="probe", points=GRID, op_cache=True)],
            installation=inst, dedup=False,
        )
        assert report.op_exact == len(GRID)
        assert report.op_miss == 0
        for wf, served in zip(GRID, report.results[0].results):
            cold = _cold_point(wf)
            for key in ("n1", "n2", "thrust_N", "t4", "sfc"):
                assert served[key] == cold[key], (wf, key)  # bitwise
            assert served["converged"]

    def test_interpolated_warm_start_converges_to_cold_answer(self):
        inst = _warm_installation()
        wf = 1.35  # bracketed by stored 1.30 and 1.40
        report = serve_sessions(
            [SessionSpec(name="near", points=(wf,), op_cache=True)],
            installation=inst, dedup=False,
        )
        assert report.op_near == 1
        served = report.results[0].results[0]
        assert served["converged"]
        cold = _cold_point(wf)
        for key in ("n1", "n2", "thrust_N", "t4", "sfc"):
            assert served[key] == pytest.approx(cold[key], rel=1e-6), key
        # the served misses were stored cold (canonical); the near-hit
        # solve is stored under its warm label, never canonical
        stored = {r["wf"]: r["provenance"] for r in inst.op_cache.export()}
        assert stored == {1.30: "cold", 1.40: "cold", 1.50: "cold", wf: "interp"}

    def test_cache_compounds_across_serve_calls(self):
        """The long-running-server shape: a later call's identical
        points are all exact hits, no solves at all."""
        inst = _warm_installation()
        before = inst.op_cache.stats()["entries"]
        report = serve_sessions(
            [SessionSpec(name="later", points=GRID, op_cache=True)],
            installation=inst, dedup=False,
        )
        assert report.op_exact == len(GRID)
        assert inst.op_cache.stats()["entries"] == before  # nothing new


class TestSpecWiring:
    def test_op_cache_flag_splits_the_workload_key(self):
        a = SessionSpec(name="x", points=(1.30,))
        b = SessionSpec(name="x", points=(1.30,), op_cache=True)
        assert a.workload_key() != b.workload_key()

    def test_fault_plan_sessions_never_join_a_family(self):
        from repro.faults.plan import FaultPlan, LatencySpike

        plan = FaultPlan(events=(LatencySpike(at_s=0.1, until_s=0.3, extra_s=0.2),))
        spec = SessionSpec(name="f", points=(1.30,), op_cache=True, fault_plan=plan)
        assert spec.op_family() is None

    def test_off_by_default(self):
        spec = SessionSpec(name="x", points=(1.30,))
        assert spec.op_cache is False
        assert spec.op_family() is None

    def test_distinct_placements_are_distinct_families(self):
        a = SessionSpec(name="a", points=(1.30,), op_cache=True)
        b = SessionSpec(
            name="b", points=(1.30,), op_cache=True, placement={"inlet": "host2"}
        )
        assert a.op_family() != b.op_family()


class TestOpPointCacheUnit:
    X = np.arange(7, dtype=float)
    J = np.eye(7)

    def test_miss_then_exact_hit(self):
        c = OpPointCache()
        assert c.lookup("fam", 1.3).kind == "miss"
        c.store("fam", 1.3, self.X, self.J, {"n1": 1.0}, provenance="cold")
        ws = c.lookup("fam", 1.3)
        assert ws.kind == "exact" and ws.skip_solve
        assert ws.solution.point == {"n1": 1.0}
        np.testing.assert_array_equal(ws.x0, self.X)
        assert (c.exact_hits, c.near_hits, c.misses) == (1, 0, 1)

    def test_warm_entry_is_seed_not_exact(self):
        c = OpPointCache()
        c.store("fam", 1.3, self.X, self.J, {}, provenance="interp")
        ws = c.lookup("fam", 1.3)
        assert ws.kind == "seed" and not ws.skip_solve
        assert c.near_hits == 1 and c.exact_hits == 0

    def test_cold_entry_never_downgraded(self):
        c = OpPointCache()
        assert c.store("fam", 1.3, self.X, self.J, {}, provenance="cold")
        assert not c.store("fam", 1.3, 2 * self.X, self.J, {}, provenance="interp")
        np.testing.assert_array_equal(c.lookup("fam", 1.3).x0, self.X)

    def test_warm_entry_upgraded_by_cold(self):
        c = OpPointCache()
        c.store("fam", 1.3, self.X, self.J, {}, provenance="seed")
        assert c.store("fam", 1.3, 2 * self.X, self.J, {}, provenance="cold")
        assert c.lookup("fam", 1.3).kind == "exact"

    def test_bracketed_point_interpolates_solution_and_jacobian(self):
        c = OpPointCache()
        c.store("fam", 1.0, np.zeros(7), np.zeros((7, 7)), {}, provenance="cold")
        c.store("fam", 2.0, np.ones(7), np.ones((7, 7)), {}, provenance="cold")
        ws = c.lookup("fam", 1.25)
        assert ws.kind == "interp"
        np.testing.assert_allclose(ws.x0, 0.25 * np.ones(7))
        np.testing.assert_allclose(ws.jac0, 0.25 * np.ones((7, 7)))

    def test_single_sided_neighbour_respects_window(self):
        c = OpPointCache(near_window=0.05)
        c.store("fam", 1.0, self.X, self.J, {}, provenance="cold")
        assert c.lookup("fam", 1.04).kind == "interp"
        assert c.lookup("fam", 1.20).kind == "miss"

    def test_stored_arrays_are_private_copies(self):
        c = OpPointCache()
        x = self.X.copy()
        c.store("fam", 1.3, x, None, {}, provenance="cold")
        x[:] = -1.0  # caller scribbles over its buffer (pool reuse)
        ws = c.lookup("fam", 1.3)
        np.testing.assert_array_equal(ws.x0, self.X)
        ws.x0[:] = -2.0  # ... and over the handed-back seed
        np.testing.assert_array_equal(c.lookup("fam", 1.3).x0, self.X)

    def test_families_are_isolated(self):
        c = OpPointCache()
        c.store("a", 1.3, self.X, self.J, {}, provenance="cold")
        assert c.lookup("b", 1.3).kind == "miss"
        assert c.stats()["families"] == 1  # a miss does not create the family
        assert len(c) == 1


class TestWireBlob:
    """export()/preload(): the op store in the shard frame codec's
    vocabulary.  Solved points must survive the trip bitwise — a
    canonical cold entry re-imported elsewhere still serves exact
    (skip-solve) hits — every value keeps its type, and a record that
    is not what export() writes is refused loudly, never misread
    (tests/serve/test_shm.py fuzzes that)."""

    def _seeded(self):
        c = OpPointCache()
        x = np.array([0.1, -0.0, 1e-309, 3.7])
        j = np.arange(16, dtype=float).reshape(4, 4) / 7.0
        c.store("fam-a", 1.30, x, j, {"n1": 0.97, "thrust": 1.2e4},
                provenance="cold")
        c.store("fam-a", 1.45, 2 * x, None, {}, provenance="cold")
        c.store("fam-b", 1.30, x + 1.0, j, {"n1": 0.5}, provenance="interp")
        return c, x, j

    def test_roundtrip_is_bitwise_and_preserves_provenance(self):
        c, x, j = self._seeded()
        d = OpPointCache()
        assert d.preload(_roundtrip(c.export())) == 3
        assert d.key_set() == c.key_set()
        # canonical cold entry: still an exact, skip-solve hit, bit-for-bit
        ws = d.lookup("fam-a", 1.30)
        assert ws.kind == "exact" and ws.skip_solve
        assert ws.x0.tobytes() == x.tobytes()
        assert ws.jac0.tobytes() == j.tobytes()
        assert ws.solution.point == {"n1": 0.97, "thrust": 1.2e4}
        # jacobian-free entry survives as such
        assert d.lookup("fam-a", 1.45).jac0 is None
        # non-canonical provenance is preserved: a seed, never an exact
        assert d.lookup("fam-b", 1.30).kind == "seed"
        # counters belong to the importer, not the records: the three
        # lookups above scored 2 exact + 1 near, zero inherited misses
        assert d.stats()["exact_hits"] == 2
        assert d.stats()["near_hits"] == 1
        assert d.stats()["misses"] == 0

    def test_point_values_keep_their_types(self):
        """The blob packed every point value as a float64, so a
        re-served ``converged`` came back ``1.0``; records carry the
        point as the dict it is."""
        c = OpPointCache()
        point = {"n1": 0.97, "converged": True, "iterations": 4}
        c.store("fam", 1.3, np.ones(3), None, point, provenance="cold")
        d = OpPointCache()
        d.preload(_roundtrip(c.export()))
        got = d.lookup("fam", 1.3).solution.point
        assert got == point
        assert [type(v) for v in got.values()] == [float, bool, int]

    def test_reexport_is_deterministic_and_identical(self):
        c, _, _ = self._seeded()
        records = c.export()
        assert c.export() == records
        d = OpPointCache()
        d.preload(_roundtrip(records))
        assert d.export() == records

    def test_preload_respects_first_write_wins_and_cold_upgrade(self):
        c, x, j = self._seeded()
        records = c.export()
        d = OpPointCache()
        d.store("fam-a", 1.30, 9 * x, None, {}, provenance="cold")
        d.store("fam-b", 1.30, 9 * x, None, {}, provenance="seed")
        # fam-a@1.30: incoming cold vs resident cold — first write wins;
        # fam-b@1.30: incoming "interp" is warm and never displaces;
        # only fam-a@1.45 is actually new
        assert d.preload(records) == 1
        np.testing.assert_array_equal(d.lookup("fam-a", 1.30).x0, 9 * x)
        np.testing.assert_array_equal(d.lookup("fam-b", 1.30).x0, 9 * x)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda r: r.update(wf=1), id="wf-int"),  # comes back a float
            pytest.param(lambda r: r.update(wf=float("nan")), id="wf-nan"),
            pytest.param(lambda r: r.update(rows=True), id="rows-bool"),
            pytest.param(lambda r: r.update(rows=3), id="rows-3"),  # of 16 floats
            pytest.param(lambda r: r.update(rows=0), id="rows-0"),  # with a jacobian
            pytest.param(lambda r: r.update(jacobian=None), id="jac-none"),  # with rows
            pytest.param(lambda r: r.update(x=r["x"][:-3]), id="x-cut"),  # mid-float
            pytest.param(lambda r: r.update(x=[0.1, 0.2]), id="x-list"),  # not bytes
            pytest.param(lambda r: r.update(point={"n1": [0.97]}), id="point-nested"),
            pytest.param(lambda r: r.update(provenance=None), id="prov-none"),
            pytest.param(lambda r: r.pop("point"), id="no-point"),
            pytest.param(lambda r: r.update(extra=1), id="extra-key"),
        ],
    )
    def test_foreign_record_refuses_whole_import(self, damage):
        """One bad record refuses the import before anything is stored —
        the good records ahead of it included."""
        c, _, _ = self._seeded()
        records = c.export()
        damage(records[2])
        d = OpPointCache()
        with pytest.raises(ValueError, match="op-cache import record 2"):
            d.preload(records)
        assert len(d) == 0
        with pytest.raises(ValueError, match="not a list"):
            d.preload(records[0])

    def test_delta_export_ships_only_newly_solved_points(self):
        c, x, j = self._seeded()
        d = OpPointCache()
        d.preload(c.export())
        preloaded = d.key_set()
        d.store("fam-c", 2.0, x, j, {}, provenance="cold")  # "solved here"
        delta = OpPointCache()
        assert delta.preload(d.export(exclude=preloaded)) == 1
        assert delta.key_set() == {("fam-c", next(iter(
            k for f, k in delta.key_set() if f == "fam-c"
        )))}

    def test_cold_upgrade_of_preloaded_entry_stays_in_delta_export(self):
        """Regression: a worker that cold-upgrades a seeded warm-derived
        entry must ship the upgrade back in its delta — excluding the
        whole preload set would strand the bitwise-canonical rewrite in
        one process and leave the merged store's tier non-monotone."""
        c, x, j = self._seeded()
        d = OpPointCache()
        d.preload(c.export())
        preloaded = d.key_set()
        assert d.cold_upgraded() == set()
        # fam-b@1.30 was seeded warm ("interp"); this process solves it
        # cold, which rewrites the entry bitwise-canonical
        assert d.store("fam-b", 1.30, 5 * x, j, {"n1": 0.5},
                       provenance="cold")
        upgraded = d.cold_upgraded()
        assert upgraded == {p for p in preloaded if p[0] == "fam-b"}
        # the shard close path's delta: preloaded minus the upgrades
        merged = OpPointCache()
        assert merged.preload(d.export(exclude=preloaded - upgraded)) == 1
        ws = merged.lookup("fam-b", 1.30)
        assert ws.kind == "exact" and ws.skip_solve
        assert ws.x0.tobytes() == (5 * x).tobytes()
