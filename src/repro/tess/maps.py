"""Turbomachinery performance maps.

"In TESS, this method [the browser widget] is used for the compressor
and turbine modules to select performance maps." (paper §3.2)

A :class:`CompressorMap` is an analytic beta-line map: given corrected
speed ``N`` (fraction of design) and map parameter ``beta`` (0..1,
surge-to-choke position), it returns corrected flow, pressure ratio,
and efficiency, each normalized so that (N=1, beta=0.5) is exactly the
design point.  Analytic maps keep the Jacobians smooth for the balance
solver while behaving like scaled real maps: flow rises with speed,
pressure ratio falls toward choke, efficiency peaks mid-map and droops
off-design.

Maps live in a named catalogue — the simulated map *files* the browser
widget selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CompressorMap", "MAP_CATALOGUE", "load_map", "MapError"]


class MapError(Exception):
    """Unknown map file or out-of-envelope map evaluation."""


@dataclass(frozen=True)
class CompressorMap:
    """An analytic compressor/fan performance map.

    ``wc_design``  corrected flow at design, kg/s
    ``pr_design``  total pressure ratio at design
    ``eta_design`` isentropic efficiency at design
    The shape exponents control how flow and pressure ratio scale with
    corrected speed; defaults are typical of high-speed axial machines.
    """

    name: str
    wc_design: float
    pr_design: float
    eta_design: float
    flow_speed_exp: float = 1.4  # Wc ~ N^a
    pr_speed_exp: float = 1.8  # (PR-1) ~ N^b
    beta_flow_gain: float = 0.10  # flow increase from surge to choke
    beta_pr_gain: float = 0.35  # PR decrease from surge to choke
    eta_beta_droop: float = 0.25
    eta_speed_droop: float = 0.60

    def _check(self, N: float, beta: float) -> None:
        if not 0.2 <= N <= 1.25:
            raise MapError(f"{self.name}: corrected speed {N:.3f} outside map envelope")
        if not 0.0 <= beta <= 1.0:
            raise MapError(f"{self.name}: beta {beta:.3f} outside 0..1")

    def corrected_flow(self, N: float, beta: float, stator_angle: float = 0.0) -> float:
        """Corrected mass flow, kg/s.

        ``stator_angle`` (degrees, about nominal) models the variable
        stator vanes whose transient schedules the paper describes:
        closing the stators (negative angle) reduces flow capacity by
        about 1%% per degree."""
        self._check(N, beta)
        shape = 1.0 + self.beta_flow_gain * (beta - 0.5)
        stator = 1.0 + 0.01 * stator_angle
        return self.wc_design * (N**self.flow_speed_exp) * shape * stator

    def pressure_ratio(self, N: float, beta: float) -> float:
        self._check(N, beta)
        shape = 1.0 - self.beta_pr_gain * (beta - 0.5)
        return 1.0 + (self.pr_design - 1.0) * (N**self.pr_speed_exp) * shape

    def efficiency(self, N: float, beta: float) -> float:
        self._check(N, beta)
        eta = self.eta_design * (
            1.0
            - self.eta_beta_droop * (beta - 0.5) ** 2
            - self.eta_speed_droop * (N - 1.0) ** 2
        )
        return max(eta, 0.2)

    def surge_pressure_ratio(self, N: float) -> float:
        """The surge-line pressure ratio at corrected speed ``N``
        (beta = 0 is the surge side of the map)."""
        return self.pressure_ratio(N, 0.0)

    def surge_margin(self, N: float, beta: float) -> float:
        """Surge margin at constant corrected speed:
        (PR_surge - PR_op) / PR_op.  Zero means the operating point sits
        on the surge line; transient accelerations eat into it."""
        pr_op = self.pressure_ratio(N, beta)
        return (self.surge_pressure_ratio(N) - pr_op) / pr_op

    def design_point(self) -> tuple:
        """(Wc, PR, eta) at N=1, beta=0.5 — exactly the design values."""
        return (
            self.corrected_flow(1.0, 0.5),
            self.pressure_ratio(1.0, 0.5),
            self.efficiency(1.0, 0.5),
        )


#: the simulated map-file directory the browser widget lists.
MAP_CATALOGUE: Dict[str, CompressorMap] = {
    "f100-fan.map": CompressorMap(
        name="f100-fan.map", wc_design=103.0, pr_design=3.0, eta_design=0.86
    ),
    "f100-hpc.map": CompressorMap(
        name="f100-hpc.map", wc_design=32.0, pr_design=8.0, eta_design=0.85
    ),
    # a generic single-spool research compressor, for tests and examples
    "nasa-stage67.map": CompressorMap(
        name="nasa-stage67.map", wc_design=33.25, pr_design=1.63, eta_design=0.90
    ),
}


def load_map(filename: str) -> CompressorMap:
    """Load a performance map by file name (the browser-widget path)."""
    try:
        return MAP_CATALOGUE[filename]
    except KeyError:
        raise MapError(
            f"no performance map {filename!r}; available: {sorted(MAP_CATALOGUE)}"
        ) from None
