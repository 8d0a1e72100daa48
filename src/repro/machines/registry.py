"""The standard machine park: the hosts from the paper's experiments.

Tables 1 and 2 of the paper name machines at NASA Lewis Research Center
(LeRC) and The University of Arizona.  :func:`standard_park` builds that
park with a site/subnet layout that reproduces the three network tiers of
Table 1: local Ethernet, same-building-multiple-gateways, and Internet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Set

from .arch import (
    CONVEX_C2,
    CRAY_YMP_ARCH,
    I860_NODE,
    MIPS_SGI,
    RS6000_ARCH,
    SPARC,
    Architecture,
)
from .host import Machine, MachineError

__all__ = ["MachinePark", "standard_park", "SITE_LERC", "SITE_ARIZONA"]

SITE_LERC = "lerc"
SITE_ARIZONA = "arizona"


@dataclass
class MachinePark:
    """A collection of named machines, looked up by hostname or nickname."""

    machines: Dict[str, Machine] = field(default_factory=dict)
    #: networks saved on this installation, by name ("create, modify, and
    #: save programs", §2.4): what every executive over the park can open
    saved_networks: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: the call plans compiled for calls between these machines, shared
    #: by every session over the park and dropped with it (see
    #: ``repro.schooner.runtime.CallPlan``)
    call_plans: Dict[tuple, Any] = field(default_factory=dict, repr=False)
    #: the (import, export) signature pairs that passed the Manager's
    #: type check on this installation (see
    #: ``repro.schooner.runtime.check_import_once``)
    checked_imports: Set[tuple] = field(default_factory=set, repr=False)

    def add(self, nickname: str, machine: Machine) -> Machine:
        if nickname in self.machines:
            raise MachineError(f"duplicate machine nickname {nickname!r}")
        self.machines[nickname] = machine
        return machine

    def __getitem__(self, name: str) -> Machine:
        if name in self.machines:
            return self.machines[name]
        for m in self.machines.values():
            if m.hostname == name:
                return m
        raise MachineError(f"unknown machine {name!r}")

    def __contains__(self, name: str) -> bool:
        try:
            self[name]
        except MachineError:
            return False
        return True

    def __iter__(self) -> Iterator[Machine]:
        return iter(self.machines.values())

    def __len__(self) -> int:
        return len(self.machines)


def standard_park() -> MachinePark:
    """Build the paper's machine park.

    LeRC subnets: the Advanced Computing Concepts Lab ("accl") and the
    Computer Services Division machine room ("csd") — acknowledgements
    section of the paper.  Machines on the same subnet reach each other
    over one Ethernet; accl <-> csd goes through gateways ("same
    building, multiple gateways" in Table 1); LeRC <-> Arizona is the
    Internet.
    """
    park = MachinePark()

    def add(nick: str, host: str, arch: Architecture, site: str, subnet: str) -> None:
        park.add(nick, Machine(hostname=host, architecture=arch, site=site, subnet=subnet))

    # NASA Lewis Research Center
    add("lerc-sparc10", "sparc10.lerc.nasa.gov", SPARC, SITE_LERC, "accl")
    add("lerc-sgi480", "sgi4d480.lerc.nasa.gov", MIPS_SGI, SITE_LERC, "accl")
    add("lerc-sgi420", "sgi4d420.lerc.nasa.gov", MIPS_SGI, SITE_LERC, "accl")
    add("lerc-rs6000", "rs6000.lerc.nasa.gov", RS6000_ARCH, SITE_LERC, "accl")
    add("lerc-cray", "cray-ymp.lerc.nasa.gov", CRAY_YMP_ARCH, SITE_LERC, "csd")
    add("lerc-convex", "convex-c220.lerc.nasa.gov", CONVEX_C2, SITE_LERC, "csd")

    # The University of Arizona
    add("ua-sparc10", "sparc10.cs.arizona.edu", SPARC, SITE_ARIZONA, "cs")
    add("ua-sgi340", "sgi4d340.cs.arizona.edu", MIPS_SGI, SITE_ARIZONA, "cs")

    # A small i860 hypercube front-end, used by the Figure-1 example of a
    # parallel algorithm encapsulated in a procedure.
    add("lerc-i860", "i860.lerc.nasa.gov", I860_NODE, SITE_LERC, "csd")

    return park
