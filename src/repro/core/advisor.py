"""Placement advice: reasonable default actions.

Section 2.3: "the user is ultimately responsible for deciding the right
tradeoffs ... whether a non-optimum local machine is better than an
optimum remote machine ... Thus, the system has to provide reasonable
default actions, while still allowing a high degree of user
interaction."

The :class:`PlacementAdvisor` is that default action for the placement
question: it predicts, per candidate machine, the virtual cost of one
call of a given procedure from a given caller — marshal CPU + network
round trip + remote compute at the machine's speed and load — and
ranks the candidates.  The executive (or the user) remains free to
ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..machines.host import Machine
from ..schooner.procedure import Procedure
from ..schooner.runtime import SchoonerEnvironment

__all__ = ["PlacementEstimate", "PlacementAdvisor"]


@dataclass(frozen=True)
class PlacementEstimate:
    """Predicted per-call cost of running a procedure on one machine."""

    machine: str
    network_s: float
    marshal_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.network_s + self.marshal_s + self.compute_s


@dataclass
class PlacementAdvisor:
    """Ranks candidate machines for a procedure's placement."""

    env: SchoonerEnvironment

    def estimate(
        self,
        caller: Machine,
        candidate: Machine,
        procedure: Procedure,
        request_bytes: int,
        reply_bytes: int,
        flops: Optional[float] = None,
    ) -> PlacementEstimate:
        """Predict one call's virtual cost with the procedure placed on
        ``candidate``."""
        costs = self.env.costs
        req = request_bytes + costs.header_bytes
        rep = reply_bytes + costs.header_bytes
        link = self.env.topology.classify(caller, candidate)
        network = link.transfer_seconds(req) + link.transfer_seconds(rep)
        marshal = self.env.cpu_seconds_for_bytes(
            caller, request_bytes + reply_bytes
        ) + self.env.cpu_seconds_for_bytes(candidate, request_bytes + reply_bytes)
        work = flops if flops is not None else procedure.cost_flops({})
        compute = candidate.compute_seconds(work)
        return PlacementEstimate(
            machine=candidate.hostname,
            network_s=network,
            marshal_s=marshal,
            compute_s=compute,
        )

    def rank(
        self,
        caller: Machine,
        candidates: Sequence[Machine],
        procedure: Procedure,
        request_bytes: int,
        reply_bytes: int,
        flops: Optional[float] = None,
    ) -> List[PlacementEstimate]:
        """All candidates, cheapest first."""
        ests = [
            self.estimate(caller, c, procedure, request_bytes, reply_bytes, flops)
            for c in candidates
            if c.up
        ]
        return sorted(ests, key=lambda e: e.total_s)
