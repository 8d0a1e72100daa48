"""repro.traffic — open-loop, arrival-driven serving and capacity sweeps.

The serving plane up through PR 6 was batch-style: N sessions handed
over at once.  This package turns it into a capacity-planning tool
(ROADMAP item 2) by modelling what a real multi-user NPS installation
sees — engineers submitting simulations *continuously*:

* :mod:`repro.traffic.arrivals` — seeded arrival processes (Poisson,
  heavy-tailed Pareto) generating virtual-clock arrival instants;
* :mod:`repro.traffic.classes` — traffic classes: named mixes of
  :class:`~repro.serve.SessionSpec` templates with per-class
  distributions over point counts, fuel-flow ranges, deadlines, and
  retry-on-shed feedback;
* :mod:`repro.traffic.driver` — the open-loop driver over
  :func:`repro.serve.serve_arrivals`: sessions admitted at their
  arrival instants, queue wait charged from arrival, shed sessions
  re-offered per their class's retry policy;
* :class:`ClassLedger` / :class:`LedgerBook` (defined in
  :mod:`repro.resilience.ledger`) — per-class latency ledgers: exact
  p50/p95/p99 queue wait and end-to-end latency, deadline-met and
  goodput accounting;
* :mod:`repro.traffic.sweep` — the declarative capacity-sweep runner:
  (arrival rate × class mix × admission policy) cells, aggregate
  CSV, ``sweep_row``/``knee`` records, and a knee summary (the
  highest rate that still meets the deadline-met target per class).

Everything is a pure function of the spec's seed: two runs of a sweep
cell produce byte-identical CSV rows and digests.  ``python -m repro
traffic`` runs the stock specs; ``benchmarks/bench_traffic_sweep.py``
gates the committed knee.
"""

from ..resilience.ledger import ClassLedger, LedgerBook
from .arrivals import ParetoArrivals, PoissonArrivals, make_process
from .classes import STOCK_MIXES, TrafficClass, TrafficMix
from .driver import TrafficReport, TrafficStream, build_stream, run_traffic
from .sweep import STOCK_SWEEPS, SweepResult, SweepSpec, run_sweep

__all__ = [
    "PoissonArrivals",
    "ParetoArrivals",
    "make_process",
    "TrafficClass",
    "TrafficMix",
    "STOCK_MIXES",
    "TrafficStream",
    "TrafficReport",
    "build_stream",
    "run_traffic",
    "ClassLedger",
    "LedgerBook",
    "SweepSpec",
    "SweepResult",
    "STOCK_SWEEPS",
    "run_sweep",
]
