"""Architecture descriptors for the simulated machine park.

Each :class:`Architecture` bundles the properties that make heterogeneity
visible to Schooner: the native data format (see :mod:`repro.uts.native`),
the Fortran compiler's name case, and a compute-speed rating used by the
virtual clock to charge execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uts.native import CrayFormat, IEEEFormat, NativeFormat, VAXFormat
from .fortran import FortranCase

__all__ = [
    "Architecture",
    "SPARC",
    "MIPS_SGI",
    "CRAY_YMP_ARCH",
    "CONVEX_C2",
    "RS6000_ARCH",
    "I860_NODE",
    "ALL_ARCHITECTURES",
    "ALL_NATIVE_FORMATS",
]


@dataclass(frozen=True)
class Architecture:
    """A machine architecture as seen by Schooner.

    ``mflops`` is the sustained floating-point rate used to convert a
    procedure's flop count into virtual seconds; the figures are
    era-appropriate order-of-magnitude ratings, chosen so the *relative*
    speeds (workstation < minisuper < vector Cray) match the paper's
    machine park.
    """

    name: str
    category: str  # "workstation" | "vector" | "minisuper" | "parallel-node"
    native_format: NativeFormat
    fortran_case: FortranCase
    mflops: float
    description: str = ""

    def compute_seconds(self, flops: float, load: float = 0.0) -> float:
        """Virtual seconds to execute ``flops`` floating-point operations.

        ``load`` is the fraction of the machine consumed by other users
        (0 = idle, 0.9 = heavily shared); it scales available throughput,
        which is what makes the paper's "move off a loaded machine"
        migration scenario measurable.
        """
        if not 0.0 <= load < 1.0:
            raise ValueError(f"load must be in [0, 1), got {load}")
        return flops / (self.mflops * 1e6 * (1.0 - load))


SPARC = Architecture(
    name="sun-sparc10",
    category="workstation",
    native_format=IEEEFormat(name="sparc", int_bits=32, big_endian=True),
    fortran_case=FortranCase.LOWER,
    mflops=10.0,
    description="Sun SPARCstation 10: IEEE-754, big-endian, 32-bit ints",
)

MIPS_SGI = Architecture(
    name="sgi-4d",
    category="workstation",
    native_format=IEEEFormat(name="mips", int_bits=32, big_endian=True),
    fortran_case=FortranCase.LOWER,
    mflops=30.0,
    description="SGI 4D (MIPS R3000): IEEE-754, big-endian, 32-bit ints",
)

CRAY_YMP_ARCH = Architecture(
    name="cray-ymp",
    category="vector",
    native_format=CrayFormat(name="cray", int_bits=64),
    fortran_case=FortranCase.UPPER,
    mflops=300.0,
    description=(
        "Cray Y-MP: 64-bit words, Cray floating format (15-bit exponent, "
        "48-bit mantissa), cft77 upper-cases Fortran names"
    ),
)

CONVEX_C2 = Architecture(
    name="convex-c220",
    category="minisuper",
    native_format=VAXFormat(name="convex", int_bits=64),
    fortran_case=FortranCase.LOWER,
    mflops=50.0,
    description=(
        "Convex C220 in native mode: VAX-derived F/D floating formats "
        "(8-bit exponent even for doubles), PDP-11 word order"
    ),
)

RS6000_ARCH = Architecture(
    name="ibm-rs6000",
    category="workstation",
    native_format=IEEEFormat(name="power", int_bits=32, big_endian=True),
    fortran_case=FortranCase.LOWER,
    mflops=40.0,
    description="IBM RS/6000 (POWER): IEEE-754, big-endian, 32-bit ints",
)

I860_NODE = Architecture(
    name="intel-i860",
    category="parallel-node",
    native_format=IEEEFormat(name="i860", int_bits=32, big_endian=False),
    fortran_case=FortranCase.LOWER,
    mflops=15.0,
    description="Intel i860 node: IEEE-754, little-endian — the one "
    "byte-swapping architecture in the park",
)

ALL_ARCHITECTURES = (
    SPARC,
    MIPS_SGI,
    CRAY_YMP_ARCH,
    CONVEX_C2,
    RS6000_ARCH,
    I860_NODE,
)

# The distinct native formats of the machine park, in a stable order —
# the sweep set of the UTS conformance harness
# (``tests/uts/conformance.py``): every codec bug that matters shows up
# on one of these.
ALL_NATIVE_FORMATS = tuple(
    {arch.native_format: None for arch in ALL_ARCHITECTURES}
)
