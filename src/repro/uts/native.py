"""Native data-format codecs for the simulated architectures.

Section 4.1 of the paper: "Adding the Cray was straightforward ... writing
UTS conversion routines for the Cray data types, especially the ones for
integer and floating point values ... The only problem was that the Cray's
integer and float representations support larger magnitudes than the IEEE
standard used by UTS."

These codecs are bit-accurate reimplementations of the interesting native
formats, so the heterogeneity problems the paper reports are *real* in
this simulation, not mocked:

* ``IEEEFormat`` — IEEE-754 with configurable endianness and native
  integer width (Sparc, SGI/MIPS, RS6000 are 32-bit big-endian).
* ``CrayFormat`` — the Cray-1/YMP 64-bit floating format: 1 sign bit,
  15-bit exponent (bias 16384), 48-bit mantissa with *no* hidden bit.
  Exponent range far exceeds IEEE-754 binary64, so unpacking a large Cray
  value into the UTS intermediate form can fail — the out-of-range case
  whose policy (error vs. ±infinity) the paper discusses.
* ``VAXFormat`` — the Convex C-series native mode, VAX-derived F/D
  floating: 8-bit exponent (bias 128) even for 64-bit doubles, hidden
  bit, PDP-11 middle-endian word order.  Its *range* is far smaller than
  IEEE binary64 (max ~1.7e38), so conversions IEEE -> Convex can go out
  of range in the opposite direction from the Cray.

All pack/unpack routines work on scalar Python values <-> ``bytes``.
:func:`repro.uts.compiled.native_roundtrip_for` applies a format's
precision/range semantics to arbitrarily structured UTS values, which is
how the RPC runtime simulates data living natively on a machine.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

from .errors import UTSConversionError, UTSRangeError

__all__ = [
    "OutOfRangePolicy",
    "NativeFormat",
    "IEEEFormat",
    "CrayFormat",
    "VAXFormat",
]


class OutOfRangePolicy(Enum):
    """What to do when a value cannot be represented in the target format.

    The paper: "Two remedies were considered: treating such out-of-range
    Cray values as an error, or converting them to the IEEE 'infinity'
    value.  After consultation with researchers involved in developing
    NPSS code, the first option was chosen."
    """

    ERROR = "error"
    INFINITY = "infinity"


@dataclass(frozen=True)
class NativeFormat:
    """Abstract native data format of a machine architecture."""

    name: str
    int_bits: int

    # -- integers ----------------------------------------------------------
    def pack_integer(self, value: int) -> bytes:
        """Encode a Python int into native integer bytes.

        Raises :class:`UTSRangeError` when the value exceeds the native
        integer width (e.g. a 64-bit UTS integer arriving at a 32-bit
        workstation).
        """
        lo = -(2 ** (self.int_bits - 1))
        hi = 2 ** (self.int_bits - 1) - 1
        if not lo <= value <= hi:
            raise UTSRangeError(
                f"integer {value} does not fit in {self.name} native "
                f"{self.int_bits}-bit integer"
            )
        return self._pack_int_bytes(value)

    def unpack_integer(self, data: bytes) -> int:
        return self._unpack_int_bytes(data)

    def _pack_int_bytes(self, value: int) -> bytes:
        raise NotImplementedError

    def _unpack_int_bytes(self, data: bytes) -> int:
        raise NotImplementedError

    # -- floats ------------------------------------------------------------
    def pack_float32(self, value: float, policy: OutOfRangePolicy) -> bytes:
        raise NotImplementedError

    def unpack_float32(self, data: bytes, policy: OutOfRangePolicy) -> float:
        raise NotImplementedError

    def pack_float64(self, value: float, policy: OutOfRangePolicy) -> bytes:
        raise NotImplementedError

    def unpack_float64(self, data: bytes, policy: OutOfRangePolicy) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class IEEEFormat(NativeFormat):
    """IEEE-754 with a configurable byte order and integer width."""

    big_endian: bool = True

    @property
    def _bo(self) -> str:
        return ">" if self.big_endian else "<"

    def _pack_int_bytes(self, value: int) -> bytes:
        fmt = {32: "i", 64: "q"}[self.int_bits]
        return struct.pack(self._bo + fmt, value)

    def _unpack_int_bytes(self, data: bytes) -> int:
        fmt = {32: "i", 64: "q"}[self.int_bits]
        return struct.unpack(self._bo + fmt, data)[0]

    def pack_float32(self, value: float, policy: OutOfRangePolicy) -> bytes:
        if value == value and abs(value) >= 3.4028235677973366e38 and not math.isinf(value):
            if policy is OutOfRangePolicy.ERROR:
                raise UTSRangeError(
                    f"{value!r} exceeds IEEE binary32 range on {self.name}"
                )
            value = math.copysign(math.inf, value)
        return struct.pack(self._bo + "f", value)

    def unpack_float32(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return struct.unpack(self._bo + "f", data)[0]

    def pack_float64(self, value: float, policy: OutOfRangePolicy) -> bytes:
        return struct.pack(self._bo + "d", value)

    def unpack_float64(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return struct.unpack(self._bo + "d", data)[0]


# ---------------------------------------------------------------------------
# Cray-1 / Y-MP floating format
# ---------------------------------------------------------------------------

_CRAY_BIAS = 0o40000  # 16384
_CRAY_MANT_BITS = 48


@dataclass(frozen=True)
class CrayFormat(NativeFormat):
    """Cray Y-MP native data formats: 64-bit integers, 64-bit floats with a
    15-bit exponent and 48-bit explicit mantissa.

    Both UTS ``float`` and ``double`` map to the same 64-bit word on a
    Cray, which is faithful: Cray Fortran REAL was 64-bit.
    """

    def _pack_int_bytes(self, value: int) -> bytes:
        return struct.pack(">q", value)

    def _unpack_int_bytes(self, data: bytes) -> int:
        return struct.unpack(">q", data)[0]

    def _pack_cray(self, value: float, policy: OutOfRangePolicy) -> bytes:
        if value != value:
            raise UTSConversionError("Cray format has no NaN representation")
        if math.isinf(value):
            if policy is OutOfRangePolicy.ERROR:
                raise UTSRangeError("Cray format has no infinity representation")
            # INFINITY policy: store the largest Cray magnitude.  Its
            # exponent exceeds IEEE binary64, so unpacking under the same
            # policy yields +/-inf again — infinity round-trips.
            sign = 1 if value < 0 else 0
            word = (
                (sign << 63)
                | (0x7FFF << _CRAY_MANT_BITS)
                | ((1 << _CRAY_MANT_BITS) - 1)
            )
            return word.to_bytes(8, "big")
        sign = 1 if math.copysign(1.0, value) < 0 else 0
        if value == 0.0:
            # a zero word with the sign bit carries IEEE's -0.0, which the
            # wire format preserves and the unpacker restores
            return (sign << 63).to_bytes(8, "big")
        m, e = math.frexp(abs(value))  # m in [0.5, 1)
        mant = round(m * (1 << _CRAY_MANT_BITS))
        if mant >= 1 << _CRAY_MANT_BITS:  # rounding carried out of the top
            mant >>= 1
            e += 1
        biased = e + _CRAY_BIAS
        if biased <= 0:  # pragma: no cover - unreachable from a double
            # Cray flushed underflow to zero, keeping the sign bit
            return (sign << 63).to_bytes(8, "big")
        if biased >= 1 << 15:  # pragma: no cover - unreachable from a double
            raise UTSRangeError(f"{value!r} exceeds Cray exponent range")
        word = (sign << 63) | (biased << _CRAY_MANT_BITS) | mant
        return word.to_bytes(8, "big")

    def _unpack_cray(self, data: bytes, policy: OutOfRangePolicy) -> float:
        word = int.from_bytes(data, "big")
        sign = -1.0 if word >> 63 else 1.0
        biased = (word >> _CRAY_MANT_BITS) & 0x7FFF
        mant = word & ((1 << _CRAY_MANT_BITS) - 1)
        if mant == 0:
            return sign * 0.0  # preserves the sign bit as IEEE +/-0.0
        frac = mant / (1 << _CRAY_MANT_BITS)
        try:
            return sign * math.ldexp(frac, biased - _CRAY_BIAS)
        except OverflowError:
            # the section-4.1 case: Cray magnitude exceeds IEEE binary64
            if policy is OutOfRangePolicy.ERROR:
                raise UTSRangeError(
                    f"Cray value (exponent 2^{biased - _CRAY_BIAS}) exceeds "
                    f"IEEE binary64 range"
                ) from None
            return sign * math.inf

    # Cray single == Cray double == one 64-bit word.
    def pack_float32(self, value: float, policy: OutOfRangePolicy) -> bytes:
        return self._pack_cray(value, policy)

    def unpack_float32(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return self._unpack_cray(data, policy)

    def pack_float64(self, value: float, policy: OutOfRangePolicy) -> bytes:
        return self._pack_cray(value, policy)

    def unpack_float64(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return self._unpack_cray(data, policy)

    @staticmethod
    def raw(sign: int, exponent: int, mantissa: int) -> bytes:
        """Build raw Cray bytes from fields (for tests that need values a
        Python float cannot express, e.g. exponent 2^8000)."""
        if not 0 <= mantissa < 1 << _CRAY_MANT_BITS:
            raise ValueError("mantissa out of range")
        biased = exponent + _CRAY_BIAS
        if not 0 <= biased < 1 << 15:
            raise ValueError("exponent out of range")
        word = ((1 if sign else 0) << 63) | (biased << _CRAY_MANT_BITS) | mantissa
        return word.to_bytes(8, "big")


# ---------------------------------------------------------------------------
# VAX-derived Convex native floating format
# ---------------------------------------------------------------------------

_VAX_BIAS = 128


@dataclass(frozen=True)
class VAXFormat(NativeFormat):
    """Convex C-series native mode: VAX F_floating (32-bit) and
    D_floating (64-bit), both with an 8-bit exponent (bias 128) and a
    hidden leading bit, stored in PDP-11 middle-endian word order.

    The headline property: D_floating doubles max out near 1.7e38, so an
    IEEE double arriving from the wire can be *too large for the Convex*
    — the mirror image of the Cray problem.
    """

    def _pack_int_bytes(self, value: int) -> bytes:
        fmt = {32: "i", 64: "q"}[self.int_bits]
        return struct.pack("<" + fmt, value)

    def _unpack_int_bytes(self, data: bytes) -> int:
        fmt = {32: "i", 64: "q"}[self.int_bits]
        return struct.unpack("<" + fmt, data)[0]

    def _pack_vax(self, value: float, frac_bits: int, policy: OutOfRangePolicy) -> bytes:
        nbytes = (1 + 8 + frac_bits) // 8
        if value != value:
            raise UTSConversionError("VAX format has no NaN representation")
        if math.isinf(value):
            if policy is OutOfRangePolicy.ERROR:
                raise UTSRangeError("VAX format has no infinity representation")
            # no infinity in VAX format: clamp to the largest representable
            logical = (
                ((1 if value < 0 else 0) << (frac_bits + 8))
                | (255 << frac_bits)
                | ((1 << frac_bits) - 1)
            )
            return self._to_pdp_order(logical, nbytes)
        if value == 0.0:
            if math.copysign(1.0, value) < 0:
                # IEEE -0.0: sign bit with zero exponent is the VAX
                # *reserved operand*, so the sign cannot be stored.  Raise
                # rather than silently dropping a sign the wire preserves;
                # the lenient policy flushes to a clean +0.0.
                if policy is OutOfRangePolicy.ERROR:
                    raise UTSConversionError(
                        f"{self.name} VAX format cannot represent -0.0 "
                        f"(sign bit with zero exponent is a reserved operand)"
                    )
            return b"\x00" * nbytes
        sign = 1 if value < 0 else 0
        m, e = math.frexp(abs(value))  # m in [0.5, 1): VAX normalization
        mant = round(m * (1 << (frac_bits + 1)))  # includes hidden bit
        if mant >= 1 << (frac_bits + 1):
            mant >>= 1
            e += 1
        biased = e + _VAX_BIAS
        if biased <= 0:
            return b"\x00" * nbytes  # flush underflow to zero
        if biased >= 256:
            if policy is OutOfRangePolicy.ERROR:
                raise UTSRangeError(
                    f"{value!r} exceeds {self.name} VAX floating range (~1.7e38)"
                )
            # no infinity in VAX format: clamp to largest representable
            biased = 255
            mant = (1 << (frac_bits + 1)) - 1
        frac = mant & ((1 << frac_bits) - 1)  # drop hidden bit
        logical = (sign << (frac_bits + 8)) | (biased << frac_bits) | frac
        return self._to_pdp_order(logical, nbytes)

    def _unpack_vax(self, data: bytes, frac_bits: int, policy: OutOfRangePolicy) -> float:
        logical = self._from_pdp_order(data)
        sign = -1.0 if (logical >> (frac_bits + 8)) & 1 else 1.0
        biased = (logical >> frac_bits) & 0xFF
        frac = logical & ((1 << frac_bits) - 1)
        if biased == 0:
            if sign < 0:
                # sign bit set with exponent 0 is the VAX *reserved
                # operand*: real hardware raised a reserved-operand fault
                # on any use, so the strict policy raises too
                if policy is OutOfRangePolicy.ERROR:
                    raise UTSConversionError(
                        f"{self.name} VAX reserved operand "
                        f"(sign bit set with zero exponent)"
                    )
                return 0.0
            return 0.0  # "dirty zero": exponent 0 is zero whatever the fraction
        mant = frac | (1 << frac_bits)  # restore hidden bit
        return sign * math.ldexp(mant / (1 << (frac_bits + 1)), biased - _VAX_BIAS)

    @staticmethod
    def raw(sign: int, biased_exponent: int, fraction: int, frac_bits: int = 55) -> bytes:
        """Build raw PDP-ordered VAX bytes from fields (for tests and the
        conformance harness in ``tests/uts/conformance.py``, which need
        bit patterns — reserved operands, dirty zeros — that no Python
        float produces through the packer)."""
        if not 0 <= fraction < 1 << frac_bits:
            raise ValueError("fraction out of range")
        if not 0 <= biased_exponent < 256:
            raise ValueError("biased exponent out of range")
        logical = (
            ((1 if sign else 0) << (frac_bits + 8))
            | (biased_exponent << frac_bits)
            | fraction
        )
        return VAXFormat._to_pdp_order(logical, (1 + 8 + frac_bits) // 8)

    @staticmethod
    def _to_pdp_order(logical: int, nbytes: int) -> bytes:
        """Split the logical value into 16-bit words, most significant word
        first, each word stored little-endian (the PDP-11 layout)."""
        out = bytearray()
        nwords = nbytes // 2
        for w in range(nwords - 1, -1, -1):
            word = (logical >> (16 * w)) & 0xFFFF
            out += struct.pack("<H", word)
        return bytes(out)

    @staticmethod
    def _from_pdp_order(data: bytes) -> int:
        nwords = len(data) // 2
        logical = 0
        for i in range(nwords):
            (word,) = struct.unpack_from("<H", data, 2 * i)
            logical |= word << (16 * (nwords - 1 - i))
        return logical

    def pack_float32(self, value: float, policy: OutOfRangePolicy) -> bytes:
        return self._pack_vax(value, 23, policy)

    def unpack_float32(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return self._unpack_vax(data, 23, policy)

    def pack_float64(self, value: float, policy: OutOfRangePolicy) -> bytes:
        return self._pack_vax(value, 55, policy)

    def unpack_float64(self, data: bytes, policy: OutOfRangePolicy) -> float:
        return self._unpack_vax(data, 55, policy)
