"""The shared simulated installation that serving sessions multiplex.

One :class:`SharedInstallation` is the serving-time analogue of the
paper's machine room: the machine park (hosts, installed executables,
running processes) and the network topology are built **once** and
shared by every concurrent session, while each session gets its own
virtual clock, transport counters, Manager, and trace log — the
isolation that keeps per-session virtual times deterministic and equal
to a solo run of the same workload.  "Once" includes the four
adapted-module executables: :meth:`SharedInstallation.standard` parses
their export specs and installs them, and a session's executive, finding
every path installed, builds and overwrites nothing.

The installation also owns the :class:`WorkloadCache`: when several
co-resident sessions request the *same* scenario (identical placement,
operating points, and configuration — the common case for a popular
simulation served to many users), the first session computes it live and
the rest replay its record: results, traffic counters, virtual time and
the digest of its call traces (the traces themselves die with the
session's environment).  Replay is exact, not approximate: a live run of
the same workload is deterministic, so the recorded digest is the one the
session would have computed — the differential tests in tests/serve/
assert this.

Below whole-session replay sits the finer-grained
:class:`~repro.serve.opcache.OpPointCache` (ROADMAP item 4): sessions
that opt in (``SessionSpec.op_cache``) share *individual solved
operating points* across different workloads — exact hits skip the
Newton solve outright, near hits interpolate stored neighbours on the
operating line into a ~1-iteration warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.specs import install_tess_executables
from ..machines.registry import MachinePark, standard_park
from ..network.clock import VirtualClock
from ..network.topology import Topology
from ..network.transport import Transport
from ..resilience.budget import RetryBudget
from ..schooner.runtime import SchoonerEnvironment
from .opcache import OpPointCache

__all__ = ["SharedInstallation", "WorkloadCache", "SessionRecord"]


@dataclass
class SessionRecord:
    """One completed workload, as the cache stores it: the per-point
    results plus everything needed to replay the session's observable
    state (trace digest and count, traffic counters, final virtual time)
    exactly.  No :class:`~repro.schooner.runtime.CallTrace` is kept: what
    a result or a disposition reads of them is summed up here once."""

    results: List[dict]
    transient: Optional[dict]
    virtual_s: float
    #: ``trace_digest`` of the session's call traces
    digest: str
    #: how many calls were traced
    traces: int
    #: whether any traced call failed, was retried or failed over
    impacted: bool
    messages: int
    payload_bytes: int
    header_bytes: int
    net_virtual_s: float


class WorkloadCache:
    """Scenario dedup across co-resident sessions.

    Keyed by :meth:`SessionSpec.workload_key` — a digest of every field
    that determines the session's deterministic trace stream.  Sessions
    with fault plans are never cached (a plan's run is not the
    workload's canonical one).  A put of an already-present key
    overwrites with identical content (two clean live runs of one
    workload record the same run).
    """

    def __init__(self) -> None:
        self._records: Dict[str, SessionRecord] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str, count: bool = True) -> Optional[SessionRecord]:
        """Fetch a record.  ``count=False`` skips the
        hit/miss counters: the serve timeline's re-probe of a parked
        session is a scheduling decision, not cache traffic, and must
        not inflate the reported rates."""
        rec = self._records.get(key)
        if count:
            if rec is None:
                self.misses += 1
            else:
                self.hits += 1
        return rec

    def put(self, key: str, record: SessionRecord) -> None:
        self._records[key] = record

    def __len__(self) -> int:
        return len(self._records)


@dataclass
class SharedInstallation:
    """The park, its installed executables and the topology every
    session shares, built once per installation (a ``serve()`` call
    given none builds its own; shard workers each build one replica).

    Sessions run one after another on the one thread that serves them:
    set-up spawns on the shared park and teardown kills there; the
    solve phases only *read* shared state (machine speeds, link costs).
    A session's fault plan changes hosts only while the session runs:
    its injector puts every host it touched back when the session ends,
    and the routes it cut are its own.
    """

    park: MachinePark
    topology: Topology
    cache: WorkloadCache = field(default_factory=WorkloadCache)
    #: the installation-wide operating-point solution store: exact hits
    #: skip the Newton solve, near hits interpolate neighbours on the
    #: operating line into a warm start (see :mod:`repro.serve.opcache`).
    #: Shared by every ``op_cache`` session across serve() calls — the
    #: long-running-server compounding win of ROADMAP item 4.
    op_cache: OpPointCache = field(default_factory=OpPointCache)
    #: the installation-wide retry-budget token bucket, shared by every
    #: session: when many sessions hit the same sick host,
    #: the bucket drains and further retries are refused, so one fault
    #: cannot amplify into a cross-session retry storm
    retry_budget: RetryBudget = field(default_factory=RetryBudget)

    def __reduce__(self):
        from .shards import NotShardSafe

        raise NotShardSafe(
            "live SharedInstallation (machine park, workload/op-point "
            "caches, retry-budget bucket) cannot cross a process "
            "boundary; each shard worker builds its own replica via "
            "SharedInstallation.standard() — see repro.serve.shards"
        )

    @classmethod
    def standard(cls) -> "SharedInstallation":
        """The paper's machine park on the three-tier network, with the
        four adapted-module executables built and installed everywhere
        (the one time a serving process builds them)."""
        park = standard_park()
        topology = Topology()
        install_tess_executables(park)
        return cls(park=park, topology=topology)

    def session_env(self) -> SchoonerEnvironment:
        """A fresh per-session environment over the shared installation:
        own clock, transport, and trace log; shared machines and
        topology."""
        clock = VirtualClock()
        return SchoonerEnvironment(
            park=self.park,
            topology=self.topology,
            clock=clock,
            transport=Transport(topology=self.topology, clock=clock),
        )
