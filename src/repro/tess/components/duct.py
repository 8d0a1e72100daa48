"""Duct: a flow passage with a fractional total-pressure loss."""

from __future__ import annotations

from dataclasses import dataclass

from ..gas import GasState

__all__ = ["Duct"]


@dataclass(frozen=True)
class Duct:
    """A constant-loss duct; ``dpqp`` is the total-pressure loss
    fraction (Delta-P over P)."""

    dpqp: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.dpqp < 1.0:
            raise ValueError(f"duct loss fraction {self.dpqp} outside [0, 1)")

    def run(self, state_in: GasState) -> GasState:
        W, Tt, Pt, far = state_in
        return GasState(W, Tt, Pt * (1.0 - self.dpqp), far)
