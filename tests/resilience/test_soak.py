"""The chaos-soak harness itself (PR 5 tentpole, part 4).

The three stock fixed-seed configs must hold every invariant: full
accounting (completed/degraded/shed, nothing undeclared), no leaked
worker threads, byte-identical replay on a fresh installation, solo
equivalence for everything that claims ``completed``, and every point a
session delivered within 1e-12 relative of the solo run's."""

import dataclasses

import pytest

from repro.records import render
from repro.resilience import soak as soak_module
from repro.resilience.soak import (
    STOCK_CONFIGS,
    SoakConfig,
    SoakReport,
    build_soak_specs,
    run_soak,
)
from repro.serve import SharedInstallation, serve_sessions


@pytest.mark.parametrize("name", list(STOCK_CONFIGS))
def test_stock_config_holds_all_invariants(name):
    soak = run_soak(STOCK_CONFIGS[name])
    assert soak.ok, "\n".join(soak.violations)
    assert soak.solo_checked >= 1


def test_specs_are_a_pure_function_of_the_config():
    a = build_soak_specs(STOCK_CONFIGS["crash-heavy"])
    b = build_soak_specs(STOCK_CONFIGS["crash-heavy"])
    assert a == b
    c = build_soak_specs(SoakConfig(name="crash-heavy", seed=999))
    assert a != c


def test_overload_posture_actually_sheds_and_parks():
    soak = run_soak(STOCK_CONFIGS["overload"])
    report = soak.report
    assert report.shed > 0
    assert all(r.shed_reason for r in report.results if r.status == "shed")
    # shed sessions consumed nothing
    assert all(r.virtual_s == 0.0 for r in report.results if r.status == "shed")
    # somebody waited in the parking queue before running
    assert any(r.wait_s > 0 for r in report.results)
    # tight deadlines under 2 live slots: the SLO columns are populated
    assert report.deadline_met + report.deadline_missed > 0


def test_crash_heavy_chaos_is_visible_not_silent():
    """Nothing touched by chaos may claim ``completed``: crash-heavy
    sessions either degrade with an explicit error/fault log or genuinely
    match their solo run (checked by run_soak's invariant 4)."""
    soak = run_soak(STOCK_CONFIGS["crash-heavy"])
    assert soak.ok, "\n".join(soak.violations)
    degraded = [r for r in soak.report.results if r.status == "degraded"]
    assert degraded, "a crash-heavy soak with zero degraded sessions"
    for r in degraded:
        assert r.error or r.fault_log or r.deadline_met is False or r.status == "degraded"


def test_render_mentions_every_session():
    soak = run_soak(STOCK_CONFIGS["partition-heavy"])
    head, serve, *rest = soak.records()
    assert head["record"] == "soak" and serve["record"] == "serve"
    assert head["replay_identical"] is True and head["ok"] is True
    sessions = [r["name"] for r in rest if r["record"] == "session"]
    specs = build_soak_specs(STOCK_CONFIGS["partition-heavy"])
    assert sessions == [spec.name for spec in specs]
    text = render(soak.records())
    for spec in specs:
        assert spec.name in text
    assert "[soak]" in text


def test_replay_verdict_is_not_read_from_message_text():
    """A config whose name contains "replay", with a violation that has
    nothing to do with replay, still replayed identically."""
    config = SoakConfig(name="replay-mix", sessions=2)
    report = serve_sessions(build_soak_specs(config), dedup=False)
    soak = SoakReport(
        config=config,
        report=report,
        replay_report=report,
        replay_identical=True,
        violations=["replay-mix-1: shed without a reason"],
    )
    (head,) = [r for r in soak.records() if r["record"] == "soak"]
    assert head["replay_identical"] is True
    assert head["ok"] is False and head["violations"] == 1
    (violation,) = [r for r in soak.records() if r["record"] == "violation"]
    assert violation["message"] == "replay-mix-1: shed without a reason"


def _diverge_digest(report):
    first, *rest = report.results
    return [dataclasses.replace(first, digest="0" * 64), *rest], report.shard_rows


def _diverge_status(report):
    first, *rest = report.results
    status = "degraded" if first.status != "degraded" else "completed"
    return [dataclasses.replace(first, status=status), *rest], report.shard_rows


def _diverge_crashes(report):
    rows = [dict(row) for row in report.shard_rows]
    rows[0]["crashes"] += 1
    return report.results, rows


@pytest.mark.parametrize(
    "diverge", [_diverge_digest, _diverge_status, _diverge_crashes]
)
def test_a_diverged_replay_is_reported(monkeypatch, diverge):
    """``run_soak`` sets ``replay_identical`` False when the replay's
    digest, status or per-shard crash count differs from the run's.
    Both serves are one inline serve standing in for a shard pool, so
    the shard-mode comparisons run without worker processes."""
    config = SoakConfig(name="diverge", sessions=2, faulty_fraction=0.0,
                        mode="shard")
    serves = []

    def fake_serve(cfg, specs):
        report = serve_sessions(specs, installation=SharedInstallation.standard())
        report.shard_rows = [{"shard": 0, "crashes": 0}]
        if serves:  # the replay
            report.results, report.shard_rows = diverge(report)
        serves.append(report)
        return report

    monkeypatch.setattr(soak_module, "_serve", fake_serve)
    soak = run_soak(config)
    assert len(serves) == 2
    (head,) = [r for r in soak.records() if r["record"] == "soak"]
    assert head["replay_identical"] is False
    assert head["ok"] is False
    assert soak.violations and all("replay" in v for v in soak.violations)


def test_a_soak_that_solo_checked_nothing_fails(monkeypatch):
    """Solo equivalence over zero completed sessions checked nothing:
    the soak reports that as a violation, not as ``ok``."""
    config = SoakConfig(name="none-complete", sessions=2, faulty_fraction=0.0)

    def all_degraded(cfg, specs):
        report = serve_sessions(specs, installation=SharedInstallation.standard())
        report.results = [dataclasses.replace(r, status="degraded") for r in report.results]
        return report

    monkeypatch.setattr(soak_module, "_serve", all_degraded)
    soak = run_soak(config)
    assert soak.solo_checked == 0
    assert soak.violations == ["solo equivalence checked no session: none completed"]
    (head,) = [r for r in soak.records() if r["record"] == "soak"]
    assert head["ok"] is False


def test_every_point_a_crash_heavy_session_delivered_is_solo_checked():
    """Degraded sessions' points and transients are compared with the
    solo run too, not only the completed session's."""
    soak = run_soak(STOCK_CONFIGS["crash-heavy"])
    delivered = sum(
        len(r.results) + (r.transient is not None) for r in soak.report.results
    )
    assert soak.solo_checked == 1 and delivered > len(soak.report.results)
    assert soak.solo_points_checked == delivered
    (head,) = [r for r in soak.records() if r["record"] == "soak"]
    assert head["solo_points_checked"] == delivered


@pytest.mark.parametrize("rel, violations", [(8.0e-14, 0), (1.0e-10, 1)])
def test_a_degraded_point_is_held_to_the_crash_matrix_bound(monkeypatch, rel, violations):
    """A degraded session's delivered thrust off the solo run's by
    ``rel``: within 1e-12 (a failover off the Cray rounds that far) it
    passes, beyond it the soak reports the point."""
    config = SoakConfig(name="one-off", sessions=2, faulty_fraction=0.0)

    def perturbed(cfg, specs):
        report = serve_sessions(specs, installation=SharedInstallation.standard())
        first, *rest = report.results
        points = [dict(p) for p in first.results]
        points[-1]["thrust_N"] *= 1.0 + rel
        points[-1]["virtual_s"] += 1.0  # when, not what: never compared
        report.results = [
            dataclasses.replace(first, status="degraded", results=points), *rest
        ]
        return report

    monkeypatch.setattr(soak_module, "_serve", perturbed)
    soak = run_soak(config)
    assert soak.solo_points_checked == sum(
        len(r.results) + (r.transient is not None) for r in soak.report.results
    )
    assert len(soak.violations) == violations
    if violations:
        (message,) = soak.violations
        assert message.startswith("one-off-0: delivered result") and "1e-12" in message
