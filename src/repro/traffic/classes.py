"""Traffic classes: what each kind of user asks the installation for.

A :class:`TrafficClass` is a seeded generator of
:class:`~repro.serve.SessionSpec`s — per-class distributions over point
counts, fuel-flow ladders, deadlines, and a retry-on-shed feedback
policy (the closed loop that makes overload compound: a shed
interactive user resubmits).  A :class:`TrafficMix` weights several
classes into the installation's offered population.

Sampled fuel flows snap to a coarse grid (``wf_quantum``) so specs have
clean float fields, and the class label rides on
``SessionSpec.traffic_class`` for the per-class ledgers — it is *not*
part of the workload key, so labelling never splits the dedup cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..serve import SessionSpec

__all__ = ["TrafficClass", "TrafficMix", "STOCK_MIXES"]


@dataclass(frozen=True)
class TrafficClass:
    """One population of users, as distributions over session shape.

    ``retry_on_shed`` > 0 turns shedding into feedback: a shed session
    of this class is re-offered up to that many times, each wave backed
    off by ``retry_backoff_s`` (doubling per attempt).  Retries are the
    honest part of an overload measurement — refused users do not
    vanish, they come back.
    """

    name: str
    weight: float = 1.0
    #: candidate steady-point counts, drawn uniformly
    point_counts: Tuple[int, ...] = (1, 2)
    #: base fuel-flow range (kg/s); the session ladder steps up from a
    #: base sampled on the ``wf_quantum`` grid inside it
    wf_min: float = 1.28
    wf_max: float = 1.44
    wf_step: float = 0.02
    wf_quantum: float = 0.005
    #: per-session deadline drawn uniformly from this range (virtual
    #: seconds from *arrival*); None = the class runs without SLOs
    deadline_range: Optional[Tuple[float, float]] = None
    #: fraction of sessions that append a short transient
    transient_fraction: float = 0.0
    transient_s: float = 0.2
    priority: int = 0
    resilient: bool = False
    op_cache: bool = False
    retry_on_shed: int = 0
    retry_backoff_s: float = 4.0

    def make_spec(self, rng: random.Random, name: str) -> SessionSpec:
        """Draw one session from the class's distributions.  Pure in
        (rng state, name): streams are reproducible end to end."""
        n_points = rng.choice(self.point_counts)
        q = self.wf_quantum
        lo = int(round(self.wf_min / q))
        hi = int(round(self.wf_max / q))
        base = round(rng.randint(lo, max(lo, hi)) * q, 6)
        points = tuple(round(base + k * self.wf_step, 6) for k in range(n_points))
        deadline = (
            round(rng.uniform(*self.deadline_range), 1)
            if self.deadline_range is not None
            else None
        )
        transient_s = (
            self.transient_s if rng.random() < self.transient_fraction else 0.0
        )
        return SessionSpec(
            name=name,
            points=points,
            transient_s=transient_s,
            deadline_s=deadline,
            priority=self.priority,
            resilient=self.resilient,
            op_cache=self.op_cache,
            traffic_class=self.name,
        )


@dataclass(frozen=True)
class TrafficMix:
    """A weighted population of traffic classes."""

    name: str
    classes: Tuple[TrafficClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a TrafficMix needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names in mix {self.name!r}: {names}")

    def pick(self, rng: random.Random) -> TrafficClass:
        return rng.choices(
            self.classes, weights=[c.weight for c in self.classes], k=1
        )[0]


#: the stock populations the CLI and sweep specs draw on.  Calibrated
#: against the serve plane's measured service times (a 1-point session
#: runs ~6 virtual s, 2 points ~9.7, 3 points ~13.4), so the stock
#: sweeps' rate axes actually cross the installation's capacity.
STOCK_MIXES: Dict[str, TrafficMix] = {
    # one homogeneous interactive population — the simplest knee hunt
    "interactive": TrafficMix(
        name="interactive",
        classes=(
            TrafficClass(
                name="interactive",
                point_counts=(1,),
                deadline_range=(16.0, 28.0),
            ),
        ),
    ),
    # the realistic two-tier shape: many small interactive studies with
    # tight SLOs (and retry feedback) over fewer, longer batch studies
    # with loose SLOs; interactive outranks batch for scarce slots
    "interactive-batch": TrafficMix(
        name="interactive-batch",
        classes=(
            TrafficClass(
                name="interactive",
                weight=3.0,
                point_counts=(1, 1, 2),
                deadline_range=(18.0, 34.0),
                priority=1,
                retry_on_shed=1,
                retry_backoff_s=6.0,
            ),
            TrafficClass(
                name="batch",
                weight=1.0,
                point_counts=(2, 3),
                deadline_range=(70.0, 140.0),
                transient_fraction=0.25,
            ),
        ),
    ),
}
