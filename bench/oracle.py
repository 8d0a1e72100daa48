"""The correctness oracle.  It runs after timing and is no part of any
measured call or of ``setup_s``.

* Every returned steady point is re-solved on an **all-local** engine
  (``NPSSExecutive().build_f100_network(); engine().balance(...)`` —
  the paper's own validation: the distributed run must reproduce the
  local one) and must agree on thrust, T4 and both spool speeds to
  ``REL_TOL``.  With more than ``SAMPLE`` distinct fuel flows a seeded
  sample of ``SAMPLE`` flows is checked.
* ``steady_warm_exact``: every served point must be bitwise the
  seeding solve of the same fuel flow.
* ``steady_cold_shard2``: ``(name, digest, virtual_s)`` rows must be
  bitwise those of an inline serve of the same specs.

A mismatch names the session; mismatched sessions count in
``failed_share`` and make the command exit non-zero.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set

import repro.serve as serve
from repro.core.executive import NPSSExecutive

REL_TOL = 1e-6
SAMPLE = 64
CHECKED = ("thrust_N", "t4", "n1", "n2")
#: inline re-serve of a shard run: every spec on a traced run (the
#: inline wall is also the scaling base), else this many, seeded
SHARD_SAMPLE = 32


class LocalReference:
    """Cold all-local balances, one per distinct fuel flow."""

    def __init__(self) -> None:
        self._executive = NPSSExecutive()
        self._executive.build_f100_network()
        self._engine = self._executive.engine()
        self._flight = self._executive.flight_condition()
        self._points: Dict[float, Dict[str, float]] = {}

    def point(self, wf: float) -> Dict[str, float]:
        ref = self._points.get(wf)
        if ref is None:
            op = self._engine.balance(self._flight, wf)
            ref = self._points[wf] = {
                "thrust_N": float(op.thrust_N), "t4": float(op.t4),
                "n1": float(op.n1), "n2": float(op.n2),
            }
        return ref

    def close(self) -> None:
        self._executive.close()


def check_steady(results: Sequence, seed: int, reference: LocalReference) -> Set[str]:
    """Names of sessions with a steady point off the local reference."""
    flows = sorted({p["wf"] for r in results for p in r.results})
    if len(flows) > SAMPLE:
        flows = random.Random(f"bench:oracle:{seed}").sample(flows, SAMPLE)
    chosen = set(flows)
    bad: Set[str] = set()
    for r in results:
        for p in r.results:
            if p["wf"] not in chosen:
                continue
            ref = reference.point(p["wf"])
            if any(abs(p[k] - ref[k]) > REL_TOL * abs(ref[k]) for k in CHECKED):
                bad.add(r.name)
    return bad


def check_warm_exact(results: Sequence, seeding) -> Set[str]:
    """Names of sessions whose cache-served answer is not bitwise the
    seeding solve's."""
    stored = {}
    for r in seeding.results:
        for p in r.results:
            stored[p["wf"]] = {k: v for k, v in p.items() if k != "virtual_s"}
    bad: Set[str] = set()
    for r in results:
        for p in r.results:
            if {k: v for k, v in p.items() if k != "virtual_s"} != stored.get(p["wf"]):
                bad.add(r.name)
    return bad


def shard_reference(specs: Sequence, seed: int, full: bool):
    """The inline serve the shard rows are compared with, and its wall."""
    chosen: List = list(specs)
    if not full and len(chosen) > SHARD_SAMPLE:
        chosen = random.Random(f"bench:shard-oracle:{seed}").sample(chosen, SHARD_SAMPLE)
    return serve.serve_sessions(chosen, dedup=False)


def check_shard(results: Sequence, inline_report) -> Set[str]:
    """Names of sessions whose (digest, virtual_s) differ from inline."""
    sharded = {r.name: (r.digest, r.virtual_s) for r in results}
    return {
        r.name for r in inline_report.results
        if sharded.get(r.name) != (r.digest, r.virtual_s)
    }
